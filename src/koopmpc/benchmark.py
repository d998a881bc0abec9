"""End-to-end forced van der Pol benchmark: fit, validate, control, report.

The pipeline generates forced training trajectories, fits the configured
model family, scores multi-step prediction on a fresh validation set, and
runs receding-horizon control from the validation initial conditions and
from a regular grid. Every stage derives its random stream from the master
seed, and per-task work is independent, so reports are identical bytes
regardless of how many workers run the control sweeps.
"""

from __future__ import annotations

import itertools
import multiprocessing

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .dynamics import (
    generate_training_trajectories,
    make_vanderpol,
    product_sines_family,
    snapshots_from_trajectories,
)
from .errors import DivergenceError, InfeasibleError, InvalidInputError, KoopmpcError
from .mpc import MpcConfig, closed_loop_run
from .observables import DelaySpec, monomials_dictionary
from .sysid import fit_delay_augmented, fit_dmdc, fit_edmdc, predict_rollout


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
    """Training trajectories and their snapshot set for the configured plant."""
    plant = make_vanderpol(cfg.mu)
    family = product_sines_family(cfg.forcing_amplitude, cfg.forcing_omega_std)
    trajectories, n_divergent = generate_training_trajectories(
        plant,
        cfg.n_trajectories,
        cfg.training_box,
        cfg.training_t_end,
        cfg.dt,
        family,
        derive_seed(cfg.seed, 0),
    )
    if not trajectories:
        raise DivergenceError("all training trajectories diverged")
    meta = {
        "seed": cfg.seed,
        "n_trajectories": cfg.n_trajectories,
        "n_divergent": n_divergent,
        "t_end": cfg.training_t_end,
        "box": cfg.training_box,
    }
    samples = snapshots_from_trajectories(trajectories, cfg.dt, meta=meta)
    return plant, trajectories, samples


def fit_models(cfg, trajectories, samples):
    """Fit the configured subset of model kinds on shared training data."""
    models = {}
    for name in cfg.models:
        if name == "dmdc":
            models[name] = fit_dmdc(samples, svd_tol=cfg.svd_tol)
        elif name == "edmdc":
            dic = monomials_dictionary(
                samples.state_dim, cfg.edmdc_order, include_constant=cfg.edmdc_include_constant
            )
            models[name] = fit_edmdc(samples, dic, svd_tol=cfg.svd_tol)
        elif name == "delay":
            coords = None if cfg.delay_full_state else (0,)
            spec = DelaySpec(d1=cfg.delay_depth, d2=cfg.delay_depth)
            models[name] = fit_delay_augmented(
                trajectories, spec, svd_tol=cfg.svd_tol, coords=coords
            )
        else:
            raise InvalidInputError(f"unknown model kind {name!r}")
    return models


def make_validation_trajectories(cfg, plant):
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
    scored on their observed coordinate only). One-step predictions come
    from a single ``C (A Z + B U)`` product over the lifted window.
    """
    start = max((model.lifting.history_steps for model in models.values()), default=0)
    out = {}
    for name, model in models.items():
        coords = list(model.lifting.coords)
        first = start - model.lifting.history_steps
        one_step, rollout = [], []
        for traj in trajectories:
            if traj.n_steps < start + horizon:
                raise InvalidInputError(
                    f"validation trajectories too short for horizon {horizon} from index {start}"
                )
            inputs = traj.inputs[:, start : start + horizon]
            truth = traj.states[coords, start + 1 : start + horizon + 1]
            pred = predict_rollout(
                model,
                traj.states[:, start],
                inputs,
                history_states=traj.states[:, :start],
                history_inputs=traj.inputs[:, :start],
            ).states
            rollout.append(float(np.sqrt(np.mean((pred[:, 1:] - truth) ** 2))))
            z = model.lifting.lift_many(traj)[:, first : first + horizon]
            step = model.c @ (model.a @ z + model.b @ inputs)
            one_step.append(float(np.sqrt(np.mean((step - truth) ** 2))))
        out[name] = {
            "one_step_rms": one_step,
            "rollout_rms": rollout,
            "start_index": start,
        }
    return out


def _control_task(args):
    """One closed-loop run; returns a summary dict (module-level for pickling)."""
    plant, model, mpc_cfg, ic, t_end, dt, threshold = args
    try:
        result = closed_loop_run(plant, model, mpc_cfg, ic, t_end, dt)
        final_norm = float(np.linalg.norm(result.final_state))
        return {
            "ic": [float(v) for v in ic],
            "cost": result.total_cost,
            "final_norm": final_norm,
            "stabilized": bool(final_norm < threshold),
            "failed": None,
        }
    except (DivergenceError, InfeasibleError) as err:
        return {
            "ic": [float(v) for v in ic],
            "cost": None,
            "final_norm": None,
            "stabilized": False,
            "failed": type(err).__name__,
        }


def _run_control_sweep(plant, model, mpc_cfg, ics, t_end, dt, threshold, pool):
    tasks = [(plant, model, mpc_cfg, np.asarray(ic, float), t_end, dt, threshold) for ic in ics]
    if pool is not None and len(tasks) > 1:
        return pool.map(_control_task, tasks)
    return [_control_task(t) for t in tasks]


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


def _staged(stage, fn, *args, **kwargs):
    """Run one pipeline stage; on failure, name the stage in the error."""
    try:
        return fn(*args, **kwargs)
    except KoopmpcError as err:
        err.stage = stage
        err.args = (f"[stage: {stage}] {err}",) + err.args[1:]
        raise


def run_benchmark(cfg, parallel=1):
    """Run the configured experiment and return the (JSON-ready) report.

    The report carries the resolved config, so it is sufficient on its own to
    re-run the experiment identically. Wall-clock timings are deliberately
    excluded; two runs with the same config produce identical reports.

    Errors raised mid-run name the failing stage and carry whatever part of
    the report was already assembled in their ``partial_report`` attribute.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise InvalidInputError("cfg must be an ExperimentConfig")
    report = {"config": cfg.resolved(), "version": __version__, "seed": cfg.seed}
    try:
        return _run_benchmark_stages(cfg, parallel, report)
    except KoopmpcError as err:
        err.partial_report = report
        raise


def _run_benchmark_stages(cfg, parallel, report):
    plant, trajectories, samples = _staged("training-data", make_training_data, cfg)
    models = _staged("model-fitting", fit_models, cfg, trajectories, samples)
    validation = _staged("validation-data", make_validation_trajectories, cfg, plant)
    errors = _staged(
        "prediction-errors", prediction_errors, models, validation, cfg.prediction_horizon
    )
    mpc_cfg = mpc_config_from(cfg)
    pool = None
    if parallel > 1 and (cfg.run_mpc_validation or cfg.run_mpc_grid):
        pool = multiprocessing.get_context("spawn").Pool(parallel)

    report["n_training_samples"] = samples.n_samples
    report["n_divergent_training"] = samples.meta.get("n_divergent", 0)
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

    try:
        if cfg.run_mpc_validation:
            ics = [traj.states[:, 0] for traj in validation]
            section = {}
            for name in cfg.models:
                results = _staged(
                    f"control-validation-{name}", _run_control_sweep,
                    plant, models[name], mpc_cfg, ics, cfg.mpc_t_end, cfg.dt,
                    cfg.success_threshold, pool,
                )
                section[name] = {
                    "per_ic": results,
                    "success_rate": float(np.mean([r["stabilized"] for r in results])),
                }
            report["mpc"]["validation"] = section

        if cfg.run_mpc_grid:
            ics = grid_initial_conditions(cfg)
            section = {}
            for name in cfg.models:
                results = _staged(
                    f"control-grid-{name}", _run_control_sweep,
                    plant, models[name], mpc_cfg, ics, cfg.mpc_t_end, cfg.dt,
                    cfg.success_threshold, pool,
                )
                section[name] = {
                    "per_ic": results,
                    "success_rate": float(np.mean([r["stabilized"] for r in results])),
                    "band_success_rates": grid_band_rates(results, cfg.ic_grid_n),
                }
            report["mpc"]["grid"] = section
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    return report, models

