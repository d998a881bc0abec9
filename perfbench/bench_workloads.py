"""Workloads, correctness gate and metrics of the koopmpc benchmark.

A run repeats cycles of one set-up and one pass of the workload. The set-up
is the reference study: identification at the study's default size and seed
(200 training and 50 validation trajectories, all three model kinds fitted,
scored and written) and the default controlled Ulam chain (16x16 boxes, 200
samples per box, 3 input levels, invariant densities, chain JSON). It is
gated against values recorded in ``reference.json``, and its models drive
the control workloads. A pass is:

* ``control``: 81 grid initial conditions x 3 models, 1 s closed loops under
  the study's bounds (|u| <= 5, |du| <= 50). Almost every QP is unconstrained.
* ``control-saturated``: the same runs with |u| <= 1, |du| <= 0.5 and 0.6 s
  closed loops. Most QPs need active-set iterations.
* ``offline``: identification at 5x the study's training data and 4x its
  validation data from the workload seed and a 24x24-box chain; before,
  between and after them, a 10 s closed loop from ``closed_loop_x0`` per
  model of the set-up.

Every time is read from the reference-speed clock of ``bench_clock.py``.

The workload seed orders the closed-loop runs of the control workloads (their
inputs are the study's fixed grid, so per-run results can be compared with
recorded values) and draws all data of an offline pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import koopmpc.benchmark as kbench
import koopmpc.io as kio
import koopmpc.mpc as kmpc
import koopmpc.transfer as ktransfer
from koopmpc.config import ExperimentConfig
from koopmpc.errors import KoopmpcError

from bench_clock import REF_KERNEL_S, RefClock
from bench_trace import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

QP_TOL = 1e-8  # closed_loop_run's default KKT tolerance
RTOL = 1e-6    # recorded floats may move by this much (BLAS summation order)
RANKING = ("edmdc", "delay", "dmdc")  # rollout RMS, best first

# Control workloads: input bounds and closed-loop duration, short enough
# that a pass takes a few seconds and a run holds several passes. The offline
# workload scales the study's training set, validation set and boxes per axis
# by these factors; its closed loops from ``closed_loop_x0`` last x0_t_end.
WORKLOADS = {
    "control": {"u_max": 5.0, "du_max": 50.0, "t_end": 1.0},
    "control-saturated": {"u_max": 1.0, "du_max": 0.5, "t_end": 0.6},
    "offline": {"train_x": 5, "validation_x": 4, "boxes_x": 1.5, "x0_t_end": 10.0},
}
MIN_CYCLES = {False: 3, True: 2}  # set-up + pass cycles per run, untraced / traced

# name -> (unit, better); printed with --trace 0 on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cl_steps_per_s": ("steps/s", "higher"),
    "run_p50_ms": ("ms", "lower"),
    "run_p95_ms": ("ms", "lower"),
    "identify_s": ("s", "lower"),
    "chain_s": ("s", "lower"),
    "stabilized_frac": ("ratio", "higher"),
    "cost_median": ("cost", "lower"),
    "rollout_rms_edmdc": ("state", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Traced layers reported as calls and self time, and those reported as
# inclusive time only ("<layer>.s").
CALL_LAYERS = (
    "dynamics.rk4_step",
    "observables.eval_dictionary",
    "sysid.lift",
    "sysid.predict_rollout",
    "numerics.truncated_svd",
    "numerics.QpProblem.init",
    "numerics.solve_qp_info",
    "numerics.stationary_vector",
    "mpc.closed_loop_run",
    "mpc.condense",
    "mpc.mpc_step",
    "mpc.qp_assemble",
    "mpc.is_feasible",
    "transfer.invariant_density",
)
TOTAL_LAYERS = (
    "dynamics.generate_training_trajectories",
    "sysid.fit_dmdc",
    "sysid.fit_edmdc",
    "sysid.fit_delay_augmented",
    "transfer.estimate_controlled_transition",
    "io.model_to_json",
    "io.chain_to_json",
    "benchmark.make_training_data",
    "benchmark.fit_models",
    "benchmark.make_validation_trajectories",
    "benchmark.prediction_errors",
)
COUNTERS = {
    "observables.eval_dictionary.cols": ("count", "lower"),
    "numerics.solve_qp_info.iters": ("count", "lower"),
    "numerics.solve_qp_info.max_kkt": ("residual", "lower"),
    "numerics.solve_qp_info.failed": ("count", "lower"),
    "mpc.closed_loop_run.failed": ("count", "lower"),
    **{f"mpc.closed_loop_run.failed.{t}": ("count", "lower") for t in
       ("DivergenceError", "InfeasibleError", "ConvergenceError")},
    "transfer.samples_flowed": ("count", "lower"),
    "io.bytes_written": ("bytes", "lower"),
}


def per_layer_spec():
    """name -> (unit, better) of every metric printed with --trace 1."""
    spec = {}
    for layer in CALL_LAYERS:
        spec[f"{layer}.calls"] = ("count", "lower")
        spec[f"{layer}.self_s"] = ("s", "lower")
    for layer in TOTAL_LAYERS:
        spec[f"{layer}.s"] = ("s", "lower")
    spec.update(COUNTERS)
    spec["mpc.warm_start_hit_frac"] = ("ratio", "higher")
    spec["mpc.active_step_frac"] = ("ratio", "lower")
    spec["trace.overhead_s"] = ("s", "lower")
    return spec


class GateError(Exception):
    """An output of the program disagrees with the recorded or expected value."""


def _close(a, b, atol=0.0):
    return abs(a - b) <= atol + RTOL * abs(b)


# --------------------------------------------------------------------------
# Inputs


def control_config(name, study):
    w = WORKLOADS[name]
    return dataclasses.replace(
        study, u_min=-w["u_max"], u_max=w["u_max"], du_min=-w["du_max"], du_max=w["du_max"],
        mpc_t_end=w["t_end"],
    )


def offline_config(study, seed):
    w = WORKLOADS["offline"]
    return dataclasses.replace(
        study,
        n_trajectories=w["train_x"] * study.n_trajectories,
        n_validation=w["validation_x"] * study.n_validation,
        ulam_counts=[round(w["boxes_x"] * c) for c in study.ulam_counts],
        seed=int(seed),
    )


def control_tasks(name, models, seed, study):
    """(model name, grid index) pairs of one control pass, in seeded order."""
    n_ics = study.ic_grid_n ** 2
    tasks = [(m, i) for m in models for i in range(n_ics)]
    order = np.random.default_rng([int(seed), sorted(WORKLOADS).index(name)]).permutation(len(tasks))
    return [tasks[k] for k in order]


# --------------------------------------------------------------------------
# Stages shared by set-up and the offline workload


def identify(cfg, out_dir):
    """Trajectories -> fitted, scored and saved models, as the study runs it."""
    plant, trajectories, samples = kbench.make_training_data(cfg)
    models = kbench.fit_models(cfg, trajectories, samples)
    validation = kbench.make_validation_trajectories(cfg, plant)
    errors = kbench.prediction_errors(models, validation, cfg.prediction_horizon)
    for name, model in models.items():
        kio.model_to_json(model, out_dir / f"model_{name}.json")
    rms = {name: float(np.median(errors[name]["rollout_rms"])) for name in models}
    return plant, models, rms


def chain(cfg, plant, out_dir):
    """Partition -> controlled chain, invariant density per level, chain JSON."""
    part = ktransfer.BoxPartition.regular(cfg.ulam_box, cfg.ulam_counts)
    levels = [np.atleast_1d(lv) for lv in cfg.ulam_levels]
    ch = ktransfer.estimate_controlled_transition(
        plant, part, levels, cfg.ulam_tau, cfg.ulam_samples_per_box, cfg.seed,
        flow_dt=cfg.ulam_flow_dt,
    )
    densities = [ktransfer.invariant_density(mat).p for mat in ch.mats]
    kio.chain_to_json(ch, out_dir / "chain.json")
    return ch, densities


def closed_loop(clock, plant, model, mpc_cfg, x0, t_end, dt):
    """One timed closed-loop run -> summary, or the failure type."""
    start = clock.now()
    try:
        res = kmpc.closed_loop_run(plant, model, mpc_cfg, x0, t_end, dt, qp_tol=QP_TOL)
    except KoopmpcError as err:
        return {"failed": type(err).__name__, "seconds": [clock.now() - start]}
    seconds = clock.now() - start
    kkt = res.solve_stats["kkt_residual"]
    return {
        "failed": None,
        "seconds": [seconds],
        "steps": int(res.stage_costs.size),
        "cost": res.total_cost,
        "final_norm": float(np.linalg.norm(res.final_state)),
        "max_kkt": float(np.nanmax(kkt)) if np.any(np.isfinite(kkt)) else 0.0,
    }


# --------------------------------------------------------------------------
# Correctness checks


def check_ranking(rms):
    vals = [rms[name] for name in RANKING]
    if not all(np.isfinite(vals)) or not (vals[0] < vals[1] < vals[2]):
        raise GateError(f"rollout RMS ranking {RANKING} violated: {rms}")


def check_chain(ch, densities):
    for mat, dens in zip(ch.mats, densities):
        used = mat.p.sum(axis=0) > 0
        col_err = float(np.max(np.abs(mat.p.sum(axis=0)[used] - 1.0)))
        if col_err > 1e-12:
            raise GateError(f"chain column sums off by {col_err:.2e}")
        if np.min(dens) < 0 or abs(float(dens.sum()) - 1.0) > 1e-9:
            raise GateError(f"invariant density sums to {dens.sum()!r}")


def check_models_saved(models, out_dir):
    for name, model in models.items():
        back = kio.model_from_json(out_dir / f"model_{name}.json")
        for key in ("a", "b", "c"):
            if not np.array_equal(getattr(back, key), getattr(model, key)):
                raise GateError(f"model_{name}.json does not round-trip matrix {key}")


def check_setup(out, ref):
    check_ranking(out["rms"])
    for name, val in ref["rollout_rms"].items():
        if not _close(out["rms"][name], val):
            raise GateError(f"{name} rollout RMS {out['rms'][name]!r} != recorded {val!r}")
    check_chain(out["chain"], out["densities"])
    for i, (dens, val) in enumerate(zip(out["densities"], ref["outside_mass"])):
        if not _close(float(dens[-1]), val, atol=1e-9):
            raise GateError(f"level {i} outside mass {dens[-1]!r} != recorded {val!r}")


def check_runs(runs, threshold, recorded=None):
    """Closed-loop runs succeeded, met the QP tolerance, and (where recorded)
    repeat the recorded cost, final state norm and stabilized flag."""
    for key, run in runs.items():
        if run["failed"] is not None:
            raise GateError(f"closed loop {key} failed with {run['failed']}")
        if not (np.isfinite(run["cost"]) and run["max_kkt"] <= QP_TOL):
            raise GateError(f"closed loop {key}: cost {run['cost']!r}, KKT {run['max_kkt']:.2e}")
        if recorded is None:
            continue
        rec = recorded[key]
        if not (_close(run["cost"], rec["cost"]) and _close(run["final_norm"], rec["final_norm"], 1e-12)):
            raise GateError(f"closed loop {key}: cost {run['cost']!r} / norm {run['final_norm']!r} "
                            f"differ from recorded {rec}")
        if (run["final_norm"] < threshold) != rec["stabilized"]:
            raise GateError(f"closed loop {key}: stabilized flag differs from recorded")


# --------------------------------------------------------------------------
# Set-up and passes


class Bench:
    """One benchmark run: set-up, timed passes, gate and metrics."""

    def __init__(self, workload, seed, work_dir, reference, study, clock):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.clock = clock
        self.workload = workload
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.reference = reference
        self.study = study
        self.attempted = 0
        self.failed = 0
        self.setup_out = None

    # A failing operation counts once against ``attempted``; the exception
    # still ends the run, whose gate then reports it incorrect.
    def _op(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except KoopmpcError:
            self.failed += 1
            raise

    def setup(self):
        """Reference study at default size and seed; returns stage timings."""
        out_dir = self.work_dir / "setup"
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = self.clock.now()
        plant, models, rms = self._op(identify, self.study, out_dir)
        t1 = self.clock.now()
        ch, densities = self._op(chain, self.study, plant, out_dir)
        t2 = self.clock.now()
        self.setup_out = {
            "plant": plant, "models": models, "rms": rms, "chain": ch, "densities": densities,
        }
        check_setup(self.setup_out, self.reference["setup"])
        check_models_saved(models, out_dir)
        return {"identify_s": t1 - t0, "chain_s": t2 - t1}

    def run_pass(self):
        if self.workload == "offline":
            return self._offline_pass()
        return self._control_pass()

    def _control_pass(self):
        cfg = control_config(self.workload, self.study)
        plant, models = self.setup_out["plant"], self.setup_out["models"]
        mpc_cfg = kbench.mpc_config_from(cfg)
        ics = kbench.grid_initial_conditions(cfg)
        runs = {}
        for model, i in control_tasks(self.workload, models, self.seed, self.study):
            self.attempted += 1
            run = closed_loop(self.clock, plant, models[model], mpc_cfg, ics[i], cfg.mpc_t_end, cfg.dt)
            self.failed += run["failed"] is not None
            runs[f"{model}/{i}"] = run
        check_runs(runs, cfg.success_threshold, self.reference[self.workload])
        return {"runs": runs}

    def _offline_pass(self):
        cfg = offline_config(self.study, self.seed)
        out_dir = self.work_dir / "offline"
        out_dir.mkdir(parents=True, exist_ok=True)
        runs = {}
        self._x0_round(runs, cfg)
        t0 = self.clock.now()
        plant, models, rms = self._op(identify, cfg, out_dir)
        t1 = self.clock.now()
        self._x0_round(runs, cfg)
        t2 = self.clock.now()
        ch, densities = self._op(chain, cfg, plant, out_dir)
        t3 = self.clock.now()
        self._x0_round(runs, cfg)
        check_ranking(rms)
        check_models_saved(models, out_dir)
        check_chain(ch, densities)
        check_runs(runs, cfg.success_threshold)
        return {"runs": runs, "identify_s": t1 - t0, "chain_s": t3 - t2}

    def _x0_round(self, runs, cfg):
        """One closed loop from ``closed_loop_x0`` per model of the set-up.

        A pass runs three rounds, before and after identification and after
        the chain, so the repeats of each loop sample different moments of
        the run. The
        loops drive the set-up's models, not the pass's: those depend on the
        seed's data, and so would the loops' QP work and time.
        """
        plant = self.setup_out["plant"]
        mpc_cfg = kbench.mpc_config_from(cfg)
        for name, model in self.setup_out["models"].items():
            self.attempted += 1
            run = closed_loop(self.clock, plant, model, mpc_cfg, np.asarray(cfg.closed_loop_x0),
                              WORKLOADS["offline"]["x0_t_end"], cfg.dt)
            self.failed += run["failed"] is not None
            prev = runs.setdefault(name, run)
            if prev is run:
                continue
            if run["failed"] is not None:
                runs[name] = run
            elif prev["failed"] is None:
                if run["cost"] != prev["cost"]:
                    raise GateError(f"closed loop {name} is not repeatable")
                prev["seconds"] += run["seconds"]


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Metrics


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end_metrics(workload, cycles, setup_out, threshold):
    """Every end-to-end metric from the untraced set-up + pass cycles.

    A closed loop's time is the median of its repeats over all passes. Control
    workloads take identification and chain times from the set-ups (the
    reference study); the offline workload takes them from its passes. The
    rollout RMS is the reference study's on every workload: on the offline
    data it moves with the seed by more than the metric's bound.
    """
    passes = [c["out"] for c in cycles]
    keys = list(passes[0]["runs"])
    run_s = {k: statistics.median(t for p in passes for t in p["runs"][k]["seconds"]) for k in keys}
    first = [passes[0]["runs"][k] for k in keys]
    stages = passes if workload == "offline" else cycles
    values = {
        "setup_s": statistics.median(c["setup_s"] for c in cycles),
        "wall_s": statistics.median(c["pass_s"] for c in cycles),
        "cl_steps_per_s": sum(r["steps"] for r in first) / sum(run_s.values()),
        "run_p50_ms": 1e3 * _percentile(list(run_s.values()), 50),
        "run_p95_ms": 1e3 * _percentile(list(run_s.values()), 95),
        "identify_s": statistics.median(st["identify_s"] for st in stages),
        "chain_s": statistics.median(st["chain_s"] for st in stages),
        "stabilized_frac": float(np.mean([r["final_norm"] < threshold for r in first])),
        "cost_median": float(np.median([r["cost"] for r in first])),
        "rollout_rms_edmdc": setup_out["rms"]["edmdc"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"cycles": len(cycles), "closed_loops": len(keys),
               "repeats_per_closed_loop": len(passes[0]["runs"][keys[0]]["seconds"]) * len(passes)}
    return values, samples


def per_layer_metrics(tracer, n_traced, overhead_s):
    """Per-layer figures for one traced set-up plus one traced pass."""

    def val(table, name):
        return getattr(tracer, table).get(name, 0) / n_traced

    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = val("calls", layer)
        out[f"{layer}.self_s"] = val("self_s", layer)
    for layer in TOTAL_LAYERS:
        out[f"{layer}.s"] = val("total_s", layer)
    for name in COUNTERS:
        out[name] = val("counters", name)
    out["numerics.solve_qp_info.max_kkt"] = tracer.counters.get("numerics.solve_qp_info.max_kkt", 0.0)
    attempts = val("counters", "mpc.warm_start_attempts")
    steps = val("counters", "mpc.steps")
    out["mpc.warm_start_hit_frac"] = val("counters", "mpc.warm_start_hits") / attempts if attempts else 0.0
    out["mpc.active_step_frac"] = val("counters", "mpc.active_steps") / steps if steps else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


# --------------------------------------------------------------------------
# One benchmark run


def _timed(clock, fn):
    gc.collect()  # start every timed unit from the same heap state
    start = clock.now()
    out = fn()
    return clock.now() - start, out


def run(workload, seed, seconds, trace, work_dir, reference=None, study=None):
    """Run one benchmark invocation and return (result dict, info dict).

    The run repeats cycles of one set-up and one pass until the next cycle
    would end after ``seconds``, with at least ``MIN_CYCLES`` cycles.
    Interleaving set-ups with passes spreads the repeats of each over the
    whole run, so a slow spell of the machine touches few of them. With
    ``trace`` every second cycle is traced.

    ``study`` is the reference study's config (the package defaults unless
    given) and ``reference`` the recorded values for it (``reference.json``
    unless given); the smoke test passes a tiny study with its own record.
    """
    study = ExperimentConfig() if study is None else study
    reference = load_reference() if reference is None else reference
    clock = RefClock()
    bench = Bench(workload, seed, work_dir, reference, study, clock)
    tracer = Tracer(clock.now)
    correct, error = True, None
    cycles = []
    try:
        clock.start()
        start = time.perf_counter()
        while True:
            traced = trace and len(cycles) % 2 == 1
            cycle_start = time.perf_counter()
            with tracer if traced else contextlib.nullcontext():
                setup_s, stages = _timed(clock, bench.setup)
                pass_s, out = _timed(clock, bench.run_pass)
            cycles.append({"traced": traced, "setup_s": setup_s, "pass_s": pass_s, "out": out,
                           "raw_s": time.perf_counter() - cycle_start, **stages})
            typical = statistics.median(c["raw_s"] for c in cycles)
            if len(cycles) >= MIN_CYCLES[trace] and time.perf_counter() - start + typical > seconds:
                break
    except (GateError, KoopmpcError) as err:
        correct, error = False, f"{type(err).__name__}: {err}"
    finally:
        clock.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [c for c in cycles if not c["traced"]]
    kernel_q = statistics.quantiles(clock.kernel_s, n=4) if len(clock.kernel_s) > 1 else clock.kernel_s
    info = {"workload": workload, "seed": int(seed), "error": error,
            "setup_s": [round(c["setup_s"], 4) for c in cycles],
            "pass_s": [round(c["pass_s"], 4) for c in cycles],
            "cycle_raw_s": [round(c["raw_s"], 4) for c in cycles],
            "clock": {"ref_kernel_ms": 1e3 * REF_KERNEL_S, "kernel_samples": len(clock.kernel_s),
                      "kernel_ms_quartiles": [round(1e3 * k, 4) for k in kernel_q]}}
    metrics = {}
    if correct:
        if trace:
            traced = [c for c in cycles if c["traced"]]
            overhead = statistics.median(c["setup_s"] + c["pass_s"] for c in traced) - statistics.median(
                c["setup_s"] + c["pass_s"] for c in plain
            )
            values = per_layer_metrics(tracer, len(traced), overhead)
            units = per_layer_spec()
        else:
            values, info["samples"] = end_to_end_metrics(
                workload, plain, bench.setup_out, study.success_threshold
            )
            units = END_TO_END
        metrics = {k: {"value": float(v), "unit": units[k][0]} for k, v in values.items()}
    result = {"correct": correct, "attempted": max(bench.attempted, 1), "failed": bench.failed,
              "metrics": metrics}
    return result, info
