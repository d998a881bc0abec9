"""Command-line harness: every stage of the benchmark as a subcommand.

Exit codes: 0 on success, 2 on usage or configuration errors, 3 on runtime
failures (divergence, infeasibility, missing data). All outputs are CSV or
JSON; nothing is plotted here.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from .benchmark import (
    make_training_data,
    fit_models,
    mpc_config_from,
    prediction_errors,
    run_benchmark,
)
from .config import ExperimentConfig, parse_config
from .dynamics import make_vanderpol, snapshots_from_trajectories
from .errors import ConfigError, KoopmpcError
from .io import (
    _read_number,
    _write_csv,
    chain_to_json,
    closed_loop_summary,
    closed_loop_to_csv,
    model_from_json,
    model_to_json,
    read_json,
    trajectories_from_csv,
    trajectories_to_csv,
    transition_to_csv,
    write_json,
)
from .mpc import closed_loop_run
from .transfer import BoxPartition, estimate_controlled_transition, invariant_density


def _load_config(args):
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        cfg.seed = args.seed
    return cfg


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    _, trajectories, samples = make_training_data(cfg)
    trajectories_to_csv(trajectories, out / "trajectories.csv")
    write_json(
        {
            "state_dim": samples.state_dim,
            "input_dim": samples.input_dim,
            "dt": cfg.dt,
            "n_divergent": samples.meta["n_divergent"],
            "config": cfg.resolved(),
        },
        out / "manifest.json",
    )
    print(f"wrote {samples.n_samples} snapshot pairs to {out}")
    return 0


def cmd_fit(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    data_dir = Path(args.data)
    manifest = read_json(data_dir / "manifest.json")
    n, q = int(manifest["state_dim"]), int(manifest["input_dim"])
    trajectories = trajectories_from_csv(data_dir / "trajectories.csv", n, q)
    samples = snapshots_from_trajectories(trajectories, _read_number(manifest, "dt"))
    cfg.models = [args.model]
    models = fit_models(cfg, trajectories, samples)
    path = out / f"model_{args.model}.json"
    model_to_json(models[args.model], path)
    print(f"wrote {path}")
    return 0


def cmd_predict(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    model = model_from_json(args.model_file)
    data_dir = Path(args.data)
    manifest = read_json(data_dir / "manifest.json")
    n, q = int(manifest["state_dim"]), int(manifest["input_dim"])
    trajectories = trajectories_from_csv(data_dir / "trajectories.csv", n, q)
    horizon = cfg.prediction_horizon
    scores = prediction_errors({model.kind: model}, trajectories, horizon)[model.kind]
    start = scores["start_index"]
    path = out / f"predictions_{model.kind}.csv"
    rows = (
        [idx, start + k, repr(float(traj.times[start + k]))]
        + [repr(float(v)) for v in traj.states[:, start + k]]
        + [repr(float(v)) for v in pred[:, k]]
        for idx, (traj, pred) in enumerate(zip(trajectories, scores["predictions"]))
        for k in range(horizon + 1)
    )
    header = ["traj", "step", "t"] + [f"x{i + 1}" for i in range(n)]
    header += [f"pred{i + 1}" for i in range(model.recovered_dim)]
    _write_csv(path, header, rows)
    write_json(
        {
            "model_kind": model.kind,
            "horizon": horizon,
            "start_index": start,
            "rollout_rms_per_trajectory": scores["rollout_rms"],
            "rollout_rms_median": float(np.median(scores["rollout_rms"])),
        },
        out / f"prediction_errors_{model.kind}.json",
    )
    print(f"wrote {path}")
    return 0


def cmd_mpc(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    model = model_from_json(args.model_file)
    plant = make_vanderpol(cfg.mu)
    result = closed_loop_run(
        plant, model, mpc_config_from(cfg), np.asarray(cfg.closed_loop_x0, float),
        cfg.mpc_t_end, cfg.dt,
    )
    closed_loop_to_csv(result, out / f"closed_loop_{model.kind}.csv")
    write_json(
        closed_loop_summary(result, success_threshold=cfg.success_threshold),
        out / f"closed_loop_{model.kind}.json",
    )
    print(
        f"closed loop from {cfg.closed_loop_x0}: final norm "
        f"{np.linalg.norm(result.final_state):.3e}, total cost {result.total_cost:.3f}"
    )
    return 0


def cmd_ulam(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    plant = make_vanderpol(cfg.mu)
    part = BoxPartition.regular(cfg.ulam_box, cfg.ulam_counts)
    chain = estimate_controlled_transition(
        plant,
        part,
        [np.atleast_1d(lv) for lv in cfg.ulam_levels],
        cfg.ulam_tau,
        cfg.ulam_samples_per_box,
        cfg.seed,
        flow_dt=cfg.ulam_flow_dt,
    )
    chain_to_json(chain, out / "chain.json")
    densities = []
    for i, mat in enumerate(chain.mats):
        transition_to_csv(mat.p, out / f"chain_level_{i}.csv")
        try:
            density = invariant_density(mat)
            densities.append({"level": list(chain.levels[i]), "density": density.p,
                              "converged": True, "residual": None})
        except KoopmpcError as err:
            densities.append({"level": list(chain.levels[i]), "density": None,
                              "converged": False, "residual": getattr(err, "residual", None)})
    write_json({"densities": densities}, out / "densities.json")
    print(f"wrote chain over {part.n_boxes} boxes (+outside) for {len(chain.levels)} levels to {out}")
    return 0


def cmd_benchmark(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    t0 = time.time()
    stage_seconds = {}
    try:
        report, models = run_benchmark(cfg, stage_seconds=stage_seconds)
    except KoopmpcError as err:
        # Retain whatever was assembled before the failing stage.
        partial = getattr(err, "partial_report", None)
        if partial is not None:
            write_json(partial, out / "report_partial.json")
        raise
    write_json(report, out / "report.json")
    for name, model in models.items():
        model_to_json(model, out / f"model_{name}.json")
    _write_error_table(report, out / "validation_errors.csv")
    _write_cost_table(report, out / "per_ic_costs.csv")
    elapsed = time.time() - t0
    # Timing and the environment live outside report.json so reports stay byte-reproducible.
    env = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__}
    write_json(
        {"wall_time_seconds": elapsed, "stage_seconds": stage_seconds, **env},
        out / "run_info.json",
    )
    print(f"benchmark finished in {elapsed:.1f}s; report at {out / 'report.json'}")
    for name, row in report["models"].items():
        print(
            f"  {name}: one-step RMS {row['one_step_rms_median']:.4f}, "
            f"{report['prediction']['horizon']}-step RMS {row['rollout_rms_median']:.4f}"
        )
    for section in ("validation", "grid"):
        if section in report["mpc"]:
            rates = {
                name: f"{100 * report['mpc'][section][name]['success_rate']:.0f}%"
                for name in report["models"]
            }
            print(f"  stabilization ({section} ICs): {rates}")
    return 0


def _write_error_table(report, path):
    pred = report.get("prediction")
    if not pred:
        return
    names = list(report["models"])
    per_traj = pred["per_trajectory"]
    header = ["trajectory"] + [f"{n}_one_step_rms" for n in names]
    header += [f"{n}_rollout_rms" for n in names]
    rows = (
        [k]
        + [repr(per_traj[n]["one_step_rms"][k]) for n in names]
        + [repr(per_traj[n]["rollout_rms"][k]) for n in names]
        for k in range(len(per_traj[names[0]]["one_step_rms"]))
    )
    _write_csv(path, header, rows)


def _write_cost_table(report, path):
    header, rows = None, []
    for section in ("validation", "grid"):
        data = report["mpc"].get(section)
        if not data:
            continue
        names = list(data)
        for k, first in enumerate(data[names[0]]["per_ic"]):
            if header is None:
                header = ["section", "index"] + [f"ic{i + 1}" for i in range(len(first["ic"]))]
                for name in names:
                    header += [f"{name}_cost", f"{name}_stabilized"]
            row = [section, k] + [repr(float(v)) for v in first["ic"]]
            for name in names:
                entry = data[name]["per_ic"][k]
                row += [
                    "" if entry["cost"] is None else repr(entry["cost"]),
                    int(entry["stabilized"]),
                ]
            rows.append(row)
    if rows:
        _write_csv(path, header, rows)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="koopmpc",
        description="Fit linear operator surrogates of a forced nonlinear plant and "
        "close the loop with receding-horizon control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default="out", help="output directory")

    p = sub.add_parser("generate", help="simulate forced training trajectories")
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit one model kind on generated data")
    p.add_argument("data", type=str, help="directory written by 'generate'")
    p.add_argument("--model", choices=["dmdc", "edmdc", "delay"], required=True)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="roll a fitted model along stored trajectories")
    p.add_argument("model_file", type=str, help="model JSON written by 'fit'")
    p.add_argument("data", type=str, help="directory written by 'generate'")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("mpc", help="closed-loop control of the plant from one state")
    p.add_argument("model_file", type=str, help="model JSON written by 'fit'")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_mpc)

    p = sub.add_parser("ulam", help="estimate a controlled box-transition chain")
    add_common(p)
    p.set_defaults(func=cmd_ulam)

    p = sub.add_parser("benchmark", help="run the full experiment and write a report")
    add_common(p)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KoopmpcError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
