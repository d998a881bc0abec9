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


def test_tracer_counts_the_traced_paths_and_restores_them(bench_trace, monkeypatch):
    import koopmpc.benchmark as kbench
    import koopmpc.mpc as kmpc

    monkeypatch.setattr(kmpc, "_condensations", {})  # no condensation left by other tests
    before = [owner.__dict__[attr] for _, owner, attr, _ in bench_trace.TRACED]
    cfg = config_from_mapping({"n_trajectories": 4, "models": ["dmdc"]})
    with bench_trace.Tracer() as tracer:
        plant, trajectories, dt = kbench.make_training_data(cfg)
        model = kbench.fit_models(cfg, trajectories, dt)["dmdc"]
        for _ in range(2):  # two identical loops share one condensation
            kmpc.closed_loop_run(plant, model, kbench.mpc_config_from(cfg), np.ones(2), 0.15, cfg.dt)
    after = [owner.__dict__[attr] for _, owner, attr, _ in bench_trace.TRACED]
    assert all(a is b for a, b in zip(before, after))
    assert tracer.calls["dynamics.generate_training_trajectories"] == 1
    assert tracer.calls["mpc.closed_loop_run"] == 2
    assert tracer.calls["mpc.condense"] == 1
    # A closed-loop step lifts through the lifting's lift_next and plans
    # through CondensedMpc.plan, not through mpc_step, LinearControlModel.lift,
    # eval_dictionary or is_feasible.
    assert tracer.calls["mpc.mpc_step"] == 0
    assert tracer.calls["mpc.is_feasible"] == 0
    assert tracer.calls["sysid.lift"] == 0
    assert tracer.calls["dynamics.rk4_step"] == 6
    # One fit per fit_models call, lifting the whole training batch once.
    assert tracer.calls["benchmark.fit_models"] == 1
    assert tracer.calls["sysid.fit_dmdc"] == 1
    assert tracer.calls["sysid.fit_edmdc"] == tracer.calls["sysid.fit_delay_augmented"] == 0
    assert tracer.calls["observables.eval_dictionary"] == 1
    n_samples = trajectories.n_paths * trajectories.times.size
    assert tracer.counters["observables.eval_dictionary.cols"] == n_samples
