"""Record the values the benchmark's correctness gate compares with.

Run from the root of a checkout whose outputs are the reference:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: the reference study's rollout RMS per
model and the outside mass of each level's invariant density, and for each
control workload the cost, final state norm and stabilized flag of every
(model, grid initial condition) run. Re-record only when a change is meant to
alter these outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import bench_env


def record(work_dir, study=None):
    """Reference values of ``study`` (the package defaults unless given)."""
    import numpy as np

    import koopmpc.benchmark as kbench
    from koopmpc.config import ExperimentConfig

    import bench_workloads as bw
    from bench_clock import RefClock

    study = ExperimentConfig() if study is None else study
    clock = RefClock()  # never started: the recorded values hold no timings
    work_dir.mkdir(parents=True, exist_ok=True)
    plant, models, rms = bw.identify(study, work_dir)
    _, densities = bw.chain(study, plant, work_dir)
    ref = {"setup": {"rollout_rms": rms, "outside_mass": [float(d[-1]) for d in densities]}}
    for name in ("control", "control-saturated"):
        cfg = bw.control_config(name, study)
        mpc_cfg = kbench.mpc_config_from(cfg)
        ics = kbench.grid_initial_conditions(cfg)
        runs = {}
        for model in models:
            for i, ic in enumerate(ics):
                run = bw.closed_loop(clock, plant, models[model], mpc_cfg, ic, cfg.mpc_t_end, cfg.dt)
                if run["failed"] is not None:
                    raise RuntimeError(f"{name} {model}/{i} failed with {run['failed']}")
                runs[f"{model}/{i}"] = {
                    "cost": run["cost"],
                    "final_norm": run["final_norm"],
                    "stabilized": bool(run["final_norm"] < cfg.success_threshold),
                }
        ref[name] = runs
        print(name, "stabilized", sum(r["stabilized"] for r in runs.values()), "of", len(runs),
              "cost median", float(np.median([r["cost"] for r in runs.values()])))
    return ref


def main():
    bench_env.bootstrap()
    work_dir = bench_env.ROOT / ".perfbench_work" / "record"
    try:
        ref = record(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # a benchmark run still uses it
            pass
    import bench_workloads as bw

    with open(bw.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", bw.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
