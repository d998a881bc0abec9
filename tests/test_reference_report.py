"""The report of a small study, recomputed through the reference paths only.

``run_benchmark`` fits, scores and controls with the package's lifts, fit,
rollout and closed loop. This test rebuilds every model from the same data
through ``fit_reference.py`` (the dictionary lifted by ``monomial_reference.py``'s
``**`` form), scores each validation path one sample at a time, and runs every
sweep's closed loops through ``cold_loop.py``. Flags and failure types must
agree exactly and numbers within the tolerances below, so a change that moves
bits on purpose shows here how far the report moved before any pin is
re-recorded.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from cold_loop import cold_closed_loop_run
from fit_reference import reference_fit_delay, reference_fit_dmdc, reference_fit_edmdc
from monomial_reference import ReferenceDictionary
from koopmpc import ConvergenceError, DivergenceError, InfeasibleError
from koopmpc.config import ExperimentConfig
from koopmpc.benchmark import make_training_data, make_validation_trajectories, mpc_config_from, run_benchmark
from koopmpc.observables import monomials_dictionary

SMALL = ExperimentConfig(n_trajectories=24, n_validation=4, ic_grid_n=3, mpc_horizon=10, mpc_t_end=2.0, success_threshold=1.0)
BOUNDS = {"default": {}, "saturated": {"u_min": -1.0, "u_max": 1.0, "du_min": -0.5, "du_max": 0.5}}

# Largest relative deviation allowed per field, about 1e-9 everywhere: the
# reference and the package may differ in the last digits (powers by another
# expression, columns lifted in another grouping, products in another order),
# and a one-step RMS, the small difference of two states, shows a last-digit
# move of a fit about 1e-9 relative. Matrix entries are compared relative to
# the largest entry. The package rolls every path out by one matrix product
# per step and the reference path by path; the delay model's operator
# (entries near 1e3, condition number about 1e7 over its kept values) carries
# that difference to 1.1e-8 relative in its rollout RMS at this config.
TOLERANCE = {"a": 1e-9, "b": 1e-9, "one_step_rms": 1e-9, "rollout_rms": 1e-9, "cost": 1e-9, "final_norm": 1e-9}
KIND_TOLERANCE = {"dmdc": TOLERANCE, "edmdc": TOLERANCE, "delay": dict(TOLERANCE, rollout_rms=1e-7)}


def _reference_models(cfg, trajectories):
    dic = ReferenceDictionary(monomials_dictionary(2, cfg.edmdc_order).exponents)
    return {
        "dmdc": reference_fit_dmdc(trajectories, cfg.dt, cfg.svd_tol),
        "edmdc": reference_fit_edmdc(trajectories, dic, cfg.dt, cfg.svd_tol),
        "delay": reference_fit_delay(trajectories, cfg.delay_depth, cfg.dt, cfg.svd_tol),
    }


def _reference_errors(model, validation, start, horizon):
    """Per-path one-step and rollout RMS, each sample lifted from its own window."""
    states, inputs = validation.as_batch()
    coords = list(model.lifting.coords)
    one_step, rollout = [], []
    for j in range(states.shape[1]):
        s, u = states[:, j], inputs[:, j]
        lifted = [model.lift(s[:, k], s[:, :k], u[:, :k]) for k in range(start, start + horizon)]
        step = np.stack([model.c @ model.step(z, u[:, k]) for k, z in zip(range(start, start + horizon), lifted)], 1)
        z, pred = lifted[0], []
        for k in range(start, start + horizon):
            z = model.step(z, u[:, k])
            pred.append(model.c @ z)
        truth = s[coords, start + 1 : start + horizon + 1]
        one_step.append(float(np.sqrt(np.mean(np.square(step - truth)))))
        rollout.append(float(np.sqrt(np.mean(np.square(np.stack(pred, 1) - truth)))))
    return one_step, rollout


def _reference_entry(plant, model, mpc_cfg, ic, cfg):
    entry = {"ic": [float(v) for v in ic], "cost": None, "final_norm": None, "stabilized": False, "failed": None}
    try:
        loop = cold_closed_loop_run(plant, model, mpc_cfg, ic, cfg.mpc_t_end, cfg.dt)
    except (DivergenceError, InfeasibleError, ConvergenceError) as err:
        entry["failed"] = type(err).__name__
    else:
        norm = float(np.linalg.norm(loop.states[:, -1]))
        entry.update(cost=loop.total_cost, final_norm=norm, stabilized=norm < cfg.success_threshold)
    return entry


def _deviation(got, want, scale=None):
    """Largest ``|got - want| / scale`` (default ``|want|``); equal entries deviate by 0 at any scale."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    scale = np.abs(want) if scale is None else scale
    return float(np.max(np.divide(err, scale, out=np.zeros_like(err), where=err > 0), initial=0.0))


def report_deviations(cfg):
    """``(deviations, mismatches)``: per model kind the largest relative deviation per field, and every flag that differs."""
    report, models = run_benchmark(cfg)
    plant, trajectories, _ = make_training_data(cfg)
    validation = make_validation_trajectories(cfg, plant)
    reference = _reference_models(cfg, trajectories)
    deviations = {name: dict.fromkeys(TOLERANCE, 0.0) for name in reference}
    mismatches = []
    start, horizon = report["prediction"]["start_index"], report["prediction"]["horizon"]
    axes = [np.linspace(lo, hi, cfg.ic_grid_n) for lo, hi in cfg.ic_grid_box]
    sweeps = {"validation": list(validation.states[:, :, 0].T), "grid": [np.array(p) for p in itertools.product(*axes)]}
    mpc_cfg = mpc_config_from(cfg)
    for name, ref in reference.items():
        deviation = deviations[name]
        for key in ("a", "b"):
            mat = getattr(ref, key)
            deviation[key] = _deviation(getattr(models[name], key), mat, np.abs(mat).max())
        one_step, rollout = _reference_errors(ref, validation, start, horizon)
        scored = report["prediction"]["per_trajectory"][name]
        deviation["one_step_rms"] = _deviation(scored["one_step_rms"], one_step)
        deviation["rollout_rms"] = _deviation(scored["rollout_rms"], rollout)
        for section, ics in sweeps.items():
            entries = report["mpc"][section][name]["per_ic"]
            assert len(entries) == len(ics)
            for got, ic in zip(entries, ics):
                want = _reference_entry(plant, ref, mpc_cfg, ic, cfg)
                for key in ("ic", "stabilized", "failed"):
                    if got[key] != want[key]:
                        mismatches.append((name, section, want["ic"], key, got[key], want[key]))
                for key in ("cost", "final_norm"):
                    if (got[key] is None) != (want[key] is None):
                        mismatches.append((name, section, want["ic"], key, got[key], want[key]))
                    elif got[key] is not None:
                        deviation[key] = max(deviation[key], _deviation(got[key], want[key]))
            rate = float(np.mean([e["stabilized"] for e in entries]))
            if report["mpc"][section][name]["success_rate"] != rate:
                mismatches.append((name, section, "success_rate"))
    return deviations, mismatches


@pytest.mark.parametrize("bounds", BOUNDS)
def test_the_report_matches_its_reference_recomputation(bounds):
    deviations, mismatches = report_deviations(dataclasses.replace(SMALL, **BOUNDS[bounds]))
    assert not mismatches
    over = {
        (name, key): value
        for name, deviation in deviations.items()
        for key, value in deviation.items()
        if not value <= KIND_TOLERANCE[name][key]
    }
    assert not over, f"deviations beyond tolerance: {over}"
