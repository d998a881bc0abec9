"""The benchmark's tracer still finds every name it wraps in the package.

``perfbench/bench_trace.py`` patches module globals and class attributes by
name; a renamed or deleted name would only break a traced benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from koopmpc.config import config_from_mapping

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("bench_trace")


def test_every_traced_name_exists(bench_trace):
    for name, owner, attr, _ in bench_trace.TRACED:
        assert attr in owner.__dict__, f"{name}: {owner!r} has no attribute {attr!r}"


def test_tracer_counts_the_traced_paths_and_restores_them(bench_trace):
    import koopmpc.benchmark as kbench
    import koopmpc.mpc as kmpc

    before = [owner.__dict__[attr] for _, owner, attr, _ in bench_trace.TRACED]
    cfg = config_from_mapping({"n_trajectories": 4, "models": ["dmdc"]})
    with bench_trace.Tracer() as tracer:
        plant, trajectories, samples = kbench.make_training_data(cfg)
        model = kbench.fit_models(cfg, trajectories, samples)["dmdc"]
        kmpc.closed_loop_run(plant, model, kbench.mpc_config_from(cfg), np.ones(2), 0.15, cfg.dt)
    after = [owner.__dict__[attr] for _, owner, attr, _ in bench_trace.TRACED]
    assert all(a is b for a, b in zip(before, after))
    assert tracer.calls["dynamics.generate_training_trajectories"] == 1
    assert tracer.calls["mpc.closed_loop_run"] == 1
    assert tracer.calls["mpc.mpc_step"] == 3
    assert tracer.calls["mpc.is_feasible"] == 2  # the shifted warm starts only
    assert tracer.calls["mpc.condense"] == 1
