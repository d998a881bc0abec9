"""Smoke test of the benchmark itself at a tiny study size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

A tiny study (few trajectories, a 2x2 control grid, a 4x4 chain) is recorded
and then benchmarked on every workload, traced and untraced. Every metric
that BENCHMARK.json names must appear with its unit, and corrupting either an
output of the program or a recorded value must make the gate fail the run.
The reference clock must sample, scale and remove its timer.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_env  # noqa: E402

bench_env.bootstrap()

import koopmpc.mpc as kmpc  # noqa: E402
import koopmpc.transfer as ktransfer  # noqa: E402
from koopmpc.config import ExperimentConfig  # noqa: E402
from koopmpc.dynamics import make_vanderpol  # noqa: E402

import bench_clock  # noqa: E402
import bench_workloads as bw  # noqa: E402
import record_reference  # noqa: E402
import run  # noqa: E402

TINY = ExperimentConfig(
    n_trajectories=80, n_validation=10, ic_grid_n=2, ulam_counts=[4, 4], ulam_samples_per_box=20
)


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    return record_reference.record(tmp_path_factory.mktemp("record"), TINY)


@pytest.fixture(scope="module")
def spec():
    with open(bench_env.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, reference, tmp_path):
    return bw.run(workload, seed=3, seconds=0.01, trace=trace, work_dir=tmp_path / "work",
                  reference=reference, study=TINY)


def test_spec_matches_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bw.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == bw.per_layer_spec()


@pytest.mark.parametrize("workload", list(bw.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported(workload, trace, spec, tiny_reference, tmp_path):
    result, info = _run(workload, trace, tiny_reference, tmp_path)
    assert result["correct"], info["error"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert not (tmp_path / "work").exists()


def test_recorded_value_mismatch_fails(tiny_reference, tmp_path):
    bad = json.loads(json.dumps(tiny_reference))
    bad["control"]["edmdc/0"]["cost"] *= 1.001
    result, info = _run("control", False, bad, tmp_path)
    assert not result["correct"] and result["metrics"] == {}
    assert "edmdc/0" in info["error"]

    bad = json.loads(json.dumps(tiny_reference))
    bad["setup"]["rollout_rms"]["dmdc"] *= 1.001
    result, _ = _run("offline", False, bad, tmp_path)
    assert not result["correct"]


def test_corrupted_output_fails(tiny_reference, tmp_path, monkeypatch):
    original = kmpc.closed_loop_run

    def corrupted(*args, **kwargs):
        res = original(*args, **kwargs)
        res.cumulative_cost[-1] *= 1.01
        return res

    monkeypatch.setattr(kmpc, "closed_loop_run", corrupted)
    result, info = _run("control-saturated", False, tiny_reference, tmp_path)
    assert not result["correct"]
    assert "differ from recorded" in info["error"]


def test_corrupted_density_fails():
    with pytest.raises(bw.GateError):
        bw.check_ranking({"edmdc": 0.1, "delay": 0.05, "dmdc": 0.3})
    part = ktransfer.BoxPartition.regular(TINY.ulam_box, [2, 2])
    ch = ktransfer.estimate_controlled_transition(make_vanderpol(TINY.mu), part, [[0.0]], 0.5, 10, 0)
    dens = ktransfer.invariant_density(ch.mats[0]).p
    bw.check_chain(ch, [dens])
    with pytest.raises(bw.GateError):
        bw.check_chain(ch, [dens * 1.01])


def test_ref_clock_samples_scales_and_stops():
    before = signal.getsignal(signal.SIGALRM)
    clock = bench_clock.RefClock(period_s=0.01)
    clock.start()
    try:
        wall0, ref0 = time.perf_counter(), clock.now()
        while time.perf_counter() - wall0 < 0.3:
            pass
        wall, ref = time.perf_counter() - wall0, clock.now() - ref0
    finally:
        clock.stop()
    assert len(clock.kernel_s) > bench_clock.WINDOW + 5  # the timer sampled
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    busy = wall - sum(clock.kernel_s[bench_clock.WINDOW:])
    expected = busy * bench_clock.REF_KERNEL_S / statistics.median(clock.kernel_s)
    assert 0.5 * expected < ref < 2.0 * expected
