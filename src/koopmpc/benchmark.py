"""End-to-end forced van der Pol benchmark: fit, validate, control, report.

The pipeline generates forced training trajectories, fits the configured
model family, scores multi-step prediction on a fresh validation set, and
runs receding-horizon control from the validation initial conditions and
from a regular grid. Every stage derives its random stream from the master
seed, so two runs with the same config write identical report bytes.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .dynamics import (
    _count,
    _first_dims,
    _join,
    _path_batches,
    generate_training_trajectories,
    make_vanderpol,
    product_sines_family,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    InfeasibleError,
    InvalidInputError,
    KoopmpcError,
)
from .io import closed_loop_summary
from .mpc import MpcConfig, closed_loop_run
from .observables import monomials_dictionary
from .sysid import fit_delay_augmented, fit_dmdc, fit_edmdc, rollout_from_lifted
from .sysid import predict_rollout  # noqa: F401  (perfbench traces this name here)


def derive_seed(seed, tag):
    """Deterministic child seed for a named stream of the experiment."""
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1)[0])


def mpc_config_from(cfg):
    return MpcConfig(
        q=np.asarray(cfg.state_weight, dtype=float),
        ru=cfg.input_weight,
        rdu=cfg.input_rate_weight,
        horizon=cfg.mpc_horizon,
        u_min=cfg.u_min,
        u_max=cfg.u_max,
        du_min=cfg.du_min,
        du_max=cfg.du_max,
        reference=np.asarray(cfg.reference, dtype=float),
    )


def make_training_data(cfg):
    """The plant, its training batch and the batch's sample spacing ``cfg.dt``.

    Raises DivergenceError if every training path diverged.
    """
    plant = make_vanderpol(cfg.mu)
    family = product_sines_family(cfg.forcing_amplitude, cfg.forcing_omega_std)
    trajectories, _ = generate_training_trajectories(
        plant,
        cfg.n_trajectories,
        cfg.training_box,
        cfg.training_t_end,
        cfg.dt,
        family,
        derive_seed(cfg.seed, 0),
    )
    if trajectories.n_paths == 0:
        raise DivergenceError("all training trajectories diverged")
    return plant, trajectories, cfg.dt


def fit_models(cfg, trajectories, dt):
    """Fit the configured subset of model kinds on shared training data.

    ``trajectories`` is a :class:`Trajectory` or a sequence of them, each a
    path or a batch, sampled ``dt`` apart; every kind fits them through its
    own lifting.
    """
    models = {}
    for name in cfg.models:
        if name == "dmdc":
            models[name] = fit_dmdc(trajectories, dt, cfg.svd_tol)
        elif name == "edmdc":
            dic = monomials_dictionary(_first_dims(trajectories)[0], cfg.edmdc_order)
            models[name] = fit_edmdc(trajectories, dic, dt, cfg.svd_tol)
        elif name == "delay":
            coords = None if cfg.delay_full_state else (0,)
            models[name] = fit_delay_augmented(trajectories, cfg.delay_depth, dt, cfg.svd_tol, coords)
        else:
            raise InvalidInputError(f"unknown model kind {name!r}")
    return models


def make_validation_trajectories(cfg, plant):
    """The validation batch: fresh forced paths from the validation box."""
    family = product_sines_family(cfg.forcing_amplitude, cfg.forcing_omega_std)
    trajectories, _ = generate_training_trajectories(
        plant,
        cfg.n_validation,
        cfg.validation_box,
        cfg.training_t_end,
        cfg.dt,
        family,
        derive_seed(cfg.seed, 1),
    )
    return trajectories


def prediction_errors(models, trajectories, horizon):
    """Per-trajectory one-step and multi-step rollout RMS for each model.

    All models are scored over the same window: predictions start at the
    earliest index every fitted model supports (delay liftings need
    history), so the errors are directly comparable. Errors are taken on the
    coordinates each model's lifting recovers (partial-state delay models are
    scored on their observed coordinate only). Each trajectory contributes
    its first ``start_index + horizon + 1`` samples. ``trajectories`` is one
    :class:`Trajectory` or a sequence of them, each a path or a batch; the
    windows of all their paths are scored as the columns of one batch, so
    each model lifts them once, takes its one-step predictions from a single
    ``C (A Z + B U)`` product, and rolls all paths forward together. Each
    entry also holds ``predictions``: per path, the (ny, horizon+1)
    recovered states of the rollout from ``start_index``. Paths of differing
    dimensions or sample spacing, a model that takes another number of
    inputs than the paths hold, and a model whose predictions are not
    finite raise InvalidInputError.
    """
    horizon = _count(horizon, "horizon", 1)
    start = max((model.lifting.history_steps for model in models.values()), default=0)
    end = start + horizon
    batches, _ = _path_batches(trajectories)
    for s, _ in batches:
        if s.shape[-1] - 1 < end:
            raise InvalidInputError(
                f"a trajectory of {s.shape[-1] - 1} steps is too short for horizon {horizon} "
                f"from index {start}"
            )
    n_paths = sum(s.shape[1] for s, _ in batches)
    if not n_paths:
        return {name: {"one_step_rms": [], "rollout_rms": [], "predictions": [],
                       "start_index": start} for name in models}
    states = _join([s[..., : end + 1] for s, _ in batches])
    inputs = _join([u[..., :end] for _, u in batches])
    u = inputs[:, :, start:]
    u_cols = u.reshape(u.shape[0], -1)
    out = {}
    for name, model in models.items():
        if model.input_dim != u.shape[0]:
            raise InvalidInputError(
                f"model {name!r} takes {model.input_dim} inputs; the trajectories have {u.shape[0]}"
            )
        coords = list(model.lifting.coords)
        first = start - model.lifting.history_steps
        z = model.lifting.lift_windows(states[:, :, first:end], inputs[:, :, first:end])
        step = model.c @ (model.a @ z.reshape(model.lifted_dim, -1) + model.b @ u_cols)
        step = step.reshape(len(coords), n_paths, horizon)
        pred = rollout_from_lifted(model, z[:, :, 0], u)
        finite = np.all(np.isfinite(pred), axis=(0, 2)) & np.all(np.isfinite(step), axis=(0, 2))
        if not np.all(finite):
            raise InvalidInputError(
                f"model {name!r} predicts non-finite states on trajectory {int(np.argmin(finite))}"
            )
        truth = states[coords, :, start + 1 :]
        out[name] = {
            "one_step_rms": _rms_per_trajectory(step - truth),
            "rollout_rms": _rms_per_trajectory(pred[:, :, 1:] - truth),
            "predictions": list(pred.transpose(1, 0, 2)),
            "start_index": start,
        }
    return out


def _rms_per_trajectory(err):
    """RMS of each trajectory's (ny, horizon) block of an (ny, M, horizon) error array."""
    per_traj = np.square(err.transpose(1, 0, 2)).reshape(err.shape[1], -1)
    return [float(v) for v in np.sqrt(np.mean(per_traj, axis=1))]


def _run_control_sweep(plant, model, mpc_cfg, ics, t_end, dt, threshold):
    """One closed loop per initial condition, in order; a summary dict per IC.

    An IC whose run diverges, turns infeasible or exhausts the QP solver is
    recorded with its failure type and does not stop the sweep.
    """
    results = []
    for ic in ics:
        ic = np.asarray(ic, float)
        entry = {"ic": [float(v) for v in ic], "cost": None, "final_norm": None,
                 "stabilized": False, "failed": None}
        try:
            result = closed_loop_run(plant, model, mpc_cfg, ic, t_end, dt)
        except (DivergenceError, InfeasibleError, ConvergenceError) as err:
            entry["failed"] = type(err).__name__
        else:
            summary = closed_loop_summary(result, success_threshold=threshold)
            entry.update(cost=summary["total_cost"], final_norm=summary["final_state_norm"],
                         stabilized=summary["stabilized"])
        results.append(entry)
    return results


def grid_initial_conditions(cfg):
    """Row-major regular grid of initial conditions over the sweep box."""
    box = np.asarray(cfg.ic_grid_box, dtype=float)
    axes = [np.linspace(lo, hi, cfg.ic_grid_n) for lo, hi in box]
    return [np.array(ic) for ic in itertools.product(*axes)]


def grid_band_rates(results, n):
    """Success rate per Chebyshev ring of the row-major n-per-axis grid, center outward."""
    center = (n - 1) / 2.0
    dim = 1
    while n > 1 and n**dim < len(results):  # the grid has n**dim points
        dim += 1
    rings = {}
    for idx, res in enumerate(results):
        cell = np.unravel_index(idx, (n,) * dim)
        ring = float(max(abs(i - center) for i in cell))
        rings.setdefault(ring, []).append(1.0 if res["stabilized"] else 0.0)
    return [
        {"ring": ring, "success_rate": float(np.mean(vals)), "n_ics": len(vals)}
        for ring, vals in sorted(rings.items())
    ]


def _staged(stage, timings, fn, *args, **kwargs):
    """Run one pipeline stage and record its wall and CPU seconds by its name.

    ``timings`` is the pair of dicts that receive them. The CPU seconds are
    those of this process, all its threads together, so a stage whose
    threads spin shows CPU well above wall. On failure, the error names the
    stage.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        return fn(*args, **kwargs)
    except KoopmpcError as err:
        err.stage = stage
        err.args = (f"[stage: {stage}] {err}",) + err.args[1:]
        raise
    finally:
        wall, cpu = timings
        wall[stage] = time.perf_counter() - t0
        cpu[stage] = time.process_time() - c0


def run_benchmark(cfg, stage_seconds=None, stage_cpu_seconds=None):
    """Run the configured experiment and return the (JSON-ready) report.

    The report carries the resolved config, so it is sufficient on its own to
    re-run the experiment identically. Wall-clock timings are deliberately
    excluded; two runs with the same config produce identical reports. The
    ``stage_seconds`` and ``stage_cpu_seconds`` dicts, if given, receive the
    wall and the process CPU seconds of each stage by the stage's name.

    Errors raised mid-run name the failing stage and carry whatever part of
    the report was already assembled in their ``partial_report`` attribute.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise InvalidInputError("cfg must be an ExperimentConfig")
    report = {"config": cfg.resolved(), "version": __version__, "seed": cfg.seed}
    timings = ({} if stage_seconds is None else stage_seconds,
               {} if stage_cpu_seconds is None else stage_cpu_seconds)
    try:
        return _run_benchmark_stages(cfg, report, timings)
    except KoopmpcError as err:
        err.partial_report = report
        raise


def _run_benchmark_stages(cfg, report, timings):
    plant, trajectories, dt = _staged("training-data", timings, make_training_data, cfg)
    models = _staged("model-fitting", timings, fit_models, cfg, trajectories, dt)
    validation = _staged(
        "validation-data", timings, make_validation_trajectories, cfg, plant
    )
    errors = _staged(
        "prediction-errors", timings, prediction_errors,
        models, validation, cfg.prediction_horizon,
    )
    sweeps = []
    if cfg.run_mpc_validation:
        sweeps.append(("validation", list(validation.states[:, :, 0].T)))
    if cfg.run_mpc_grid:
        sweeps.append(("grid", grid_initial_conditions(cfg)))
    mpc_cfg = mpc_config_from(cfg)

    report["n_training_samples"] = trajectories.n_paths * trajectories.n_steps
    report["n_divergent_training"] = cfg.n_trajectories - trajectories.n_paths
    report["models"] = {}
    report["mpc"] = {}
    for name in cfg.models:
        report["models"][name] = {
            "one_step_rms_median": float(np.median(errors[name]["one_step_rms"])),
            "rollout_rms_median": float(np.median(errors[name]["rollout_rms"])),
        }
    report["prediction"] = {
        "horizon": cfg.prediction_horizon,
        "start_index": errors[cfg.models[0]]["start_index"],
        "per_trajectory": {
            name: {
                "one_step_rms": errors[name]["one_step_rms"],
                "rollout_rms": errors[name]["rollout_rms"],
            }
            for name in cfg.models
        },
    }

    for section, ics in sweeps:
        entries = {}
        for name in cfg.models:
            results = _staged(
                f"control-{section}-{name}", timings, _run_control_sweep,
                plant, models[name], mpc_cfg, ics, cfg.mpc_t_end, cfg.dt, cfg.success_threshold,
            )
            entries[name] = {
                "per_ic": results,
                "success_rate": float(np.mean([r["stabilized"] for r in results])),
            }
            if section == "grid":
                entries[name]["band_success_rates"] = grid_band_rates(results, cfg.ic_grid_n)
        report["mpc"][section] = entries

    return report, models

