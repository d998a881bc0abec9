"""End-to-end acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
PASS line when it holds (run with -s to see them); a failing criterion shows
up as an ordinary pytest failure with the measured numbers.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import koopmpc
from koopmpc import (
    BoxPartition,
    CondensedMpc,
    ControlSystem,
    Dictionary,
    MpcConfig,
    QpProblem,
    TransitionMatrix,
    closed_loop_run,
    estimate_controlled_transition,
    fit_dmdc,
    fit_edmdc,
    identify_eigenfunctions,
    invariant_density,
    monomials_dictionary,
    predict_rollout,
    simulate,
)
from koopmpc.benchmark import (
    fit_models,
    grid_band_rates,
    grid_initial_conditions,
    make_training_data,
    make_validation_trajectories,
    mpc_config_from,
    prediction_errors,
)
from koopmpc.cli import main
from koopmpc.config import ExperimentConfig, config_from_mapping
from koopmpc.numerics import solve_qp_info

from conftest import A0, B0, ZeroForcing, discrete_linear_samples, paths
from test_numerics import brute_force_qp


def report_line(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_benchmark():
    """Default-configuration plant, fitted models, and validation set (seed 0)."""
    cfg = ExperimentConfig()
    plant, trajectories, dt = make_training_data(cfg)
    models = fit_models(cfg, trajectories, dt)
    validation = make_validation_trajectories(cfg, plant)
    return cfg, plant, models, validation


def test_criterion_1_exact_linear_recovery():
    t0 = time.time()
    data = discrete_linear_samples(m=50, seed=0)
    model = fit_dmdc(data, 0.1)
    err_a = float(np.linalg.norm(model.a - A0))
    err_b = float(np.linalg.norm(model.b - B0))
    elapsed = time.time() - t0
    report_line(
        "criterion 1: exact recovery of a known linear system",
        err_a <= 1e-8 and err_b <= 1e-8 and elapsed < 1.0,
        f"|A err|={err_a:.2e} |B err|={err_b:.2e} in {elapsed:.3f}s",
    )


def test_criterion_2_exact_closure_rollout(slow_manifold):
    dic = Dictionary(2, monomials_dictionary(2, 2).exponents[[0, 1, 2]])  # {x1, x2, x1^2}
    rng = np.random.default_rng(20)
    trajs = [
        simulate(slow_manifold, rng.uniform(-1.5, 1.5, 2), ZeroForcing(), 0.1, 0.01)
        for _ in range(40)
    ]
    model = fit_edmdc(trajs, dic, 0.01)
    truth = simulate(slow_manifold, [1.2, -0.8], ZeroForcing(), 1.0, 0.01)
    pred = predict_rollout(model, truth.states[:, 0], truth.inputs)
    rms = float(np.sqrt(np.mean((pred.states - truth.states) ** 2)))
    report_line(
        "criterion 2: invariant-subspace lifting reproduces the flow",
        rms <= 1e-6,
        f"100-step rollout RMS={rms:.2e}",
    )


def test_criterion_3_eigenfunction_identification(slow_manifold):
    mu, lam = -0.05, -1.0
    rng = np.random.default_rng(21)
    x = rng.uniform(-2.0, 2.0, (2, 400))
    xdot = slow_manifold.rhs(x, np.zeros((1, x.shape[1])), 0.0)
    entry = identify_eigenfunctions(x, xdot, monomials_dictionary(2, 2), lam)
    b = lam / (lam - 2 * mu)  # = 1/0.9
    target = np.zeros(5)
    target[1] = 1.0
    target[2] = -b
    target /= np.linalg.norm(target)
    coef_err = float(np.max(np.abs(entry.coefficients - target)))
    report_line(
        "criterion 3: sparse nullspace recovers the quadratic eigenfunction",
        coef_err <= 1e-5 and entry.residual <= 1e-8,
        f"coef err={coef_err:.2e} residual={entry.residual:.2e}",
    )


def test_criterion_4_validation_error_ranking():
    seeds = (0, 1, 2)
    orderings = []
    details = []
    for seed in seeds:
        t0 = time.time()
        cfg = config_from_mapping({"seed": seed, "run_mpc_validation": False, "run_mpc_grid": False})
        plant, trajectories, dt = make_training_data(cfg)
        models = fit_models(cfg, trajectories, dt)
        validation = make_validation_trajectories(cfg, plant)
        errors = prediction_errors(models, validation, cfg.prediction_horizon)
        med = {name: float(np.median(errors[name]["rollout_rms"])) for name in models}
        elapsed = time.time() - t0
        orderings.append(med["edmdc"] < med["delay"] < med["dmdc"] and elapsed <= 300.0)
        details.append(
            f"seed {seed}: edmdc={med['edmdc']:.4f} delay={med['delay']:.4f} "
            f"dmdc={med['dmdc']:.4f} ({elapsed:.1f}s)"
        )
    report_line(
        "criterion 4: rollout error ranking edmdc < delay < dmdc per seed",
        all(orderings),
        "; ".join(details),
    )


def test_criterion_5_closed_loop_stabilization(default_benchmark):
    cfg, plant, models, validation = default_benchmark
    mpc_cfg = mpc_config_from(cfg)
    ics = [traj.states[:, 0] for traj in paths(validation)]

    def success_rate(model, ic_list):
        from koopmpc import KoopmpcError

        wins = []
        for ic in ic_list:
            try:
                result = closed_loop_run(plant, model, mpc_cfg, ic, cfg.mpc_t_end, cfg.dt)
                wins.append(float(np.linalg.norm(result.final_state)) < cfg.success_threshold)
            except KoopmpcError:
                wins.append(False)
        return float(np.mean(wins)), wins

    rates = {name: success_rate(models[name], ics)[0] for name in ("dmdc", "edmdc", "delay")}
    grid_ics = grid_initial_conditions(cfg)
    _, grid_wins = success_rate(models["dmdc"], grid_ics)
    bands = grid_band_rates(
        [{"stabilized": bool(w)} for w in grid_wins], cfg.ic_grid_n
    )
    band_rates = [b["success_rate"] for b in bands]
    nonincreasing = all(band_rates[i] >= band_rates[i + 1] - 1e-12 for i in range(len(band_rates) - 1))
    ok = (
        rates["edmdc"] >= 0.95
        and rates["delay"] >= 0.95
        and rates["dmdc"] >= 0.70
        and nonincreasing
    )
    report_line(
        "criterion 5: receding-horizon control stabilizes the oscillator",
        ok,
        f"success rates {rates}; dmdc grid band rates {band_rates}",
    )


def test_criterion_6_transition_chain_properties():
    # Column stochasticity on an estimated chain for the forced oscillator.
    from koopmpc import make_vanderpol

    part = BoxPartition.regular([[-4.0, 4.0], [-4.0, 4.0]], [6, 6])
    chain = estimate_controlled_transition(
        make_vanderpol(0.2), part, [np.array([-5.0]), np.array([0.0]), np.array([5.0])],
        tau=0.25, samples_per_box=60, seed=4, flow_dt=0.05,
    )
    col_err = max(float(np.max(np.abs(m.p.sum(axis=0) - 1.0))) for m in chain.mats)

    class DoublingMap:
        def __call__(self, x, u, t):
            return (2.0 * x) % 1.0

    halves = BoxPartition.regular([[0.0, 1.0]], [2])
    doubling = estimate_controlled_transition(
        ControlSystem(1, 1, DoublingMap(), kind="map"), halves, [0.0],
        tau=1, samples_per_box=1000, seed=3,
    )
    doubling_err = float(np.max(np.abs(doubling.mats[0].p.toarray()[:2, :2] - 0.5)))

    tm = TransitionMatrix(p=np.array([[0.9, 0.2], [0.1, 0.8]]), tau=1.0)
    pi_err = float(np.max(np.abs(invariant_density(tm).p - [2.0 / 3.0, 1.0 / 3.0])))

    ok = col_err <= 1e-12 and doubling_err <= 0.05 and pi_err <= 1e-9
    report_line(
        "criterion 6: transition-chain estimator properties",
        ok,
        f"column sum err={col_err:.1e}, doubling err={doubling_err:.3f}, "
        f"invariant density err={pi_err:.1e}",
    )


def test_criterion_7_qp_matches_grid_oracle(default_benchmark):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        qp = QpProblem(
            h=m @ m.T + np.eye(2),
            g=rng.standard_normal(2),
            a_ineq=rng.standard_normal((1, 2)),
            b_ineq=rng.random(1),
            lb=[-1.0, -1.0],
            ub=[1.0, 1.0],
        )
        x, _ = solve_qp_info(qp)
        ref = brute_force_qp(qp)

        def obj(v, qp=qp):
            return 0.5 * v @ qp.h @ v + qp.g @ v

        assert obj(ref) >= obj(x) - 1e-9
        worst = max(worst, abs(obj(x) - obj(ref)))

    # Two-step condensed control problem with an active rate bound.
    cfg, _, models, _ = default_benchmark
    mpc_cfg = MpcConfig(
        q=np.eye(2), ru=0.1, rdu=0.1, horizon=2,
        u_min=-1.0, u_max=1.0, du_min=-0.3, du_max=0.3, reference=np.zeros(2),
    )
    model = models["dmdc"]
    qp = CondensedMpc(model, mpc_cfg).qp(model.lift([2.0, 1.0]), np.zeros(1))
    x, _ = solve_qp_info(qp)
    ref = brute_force_qp(qp)

    def obj(v):
        return 0.5 * v @ qp.h @ v + qp.g @ v

    mpc_gap = abs(obj(x) - obj(ref))
    worst = max(worst, mpc_gap)
    report_line(
        "criterion 7: QP solutions match exhaustive grid search",
        worst < 2e-3,
        f"worst objective gap={worst:.2e} over 20 random problems + condensed control QP",
    )


def test_criterion_8_rk4_order():
    class DecayRhs:
        def __call__(self, x, u, t):
            return [-v for v in x]

    sys = ControlSystem(1, 1, DecayRhs())
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = [
        abs(simulate(sys, [1.0], ZeroForcing(), 1.0, dt).states[0, -1] - np.exp(-1.0))
        for dt in dts
    ]
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    report_line(
        "criterion 8: integrator global error is fourth order",
        abs(slope - 4.0) <= 0.2,
        f"log-log slope={slope:.3f}",
    )


CRITERION_9_CONFIG = {
    "n_trajectories": 15,
    "n_validation": 4,
    "mpc_t_end": 3.0,
    "ic_grid_n": 3,
    "seed": 7,
}


def test_criterion_9_report_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CRITERION_9_CONFIG))
    digests = []
    for label in ("a", "b", "c"):
        out = tmp_path / label
        code = main(["benchmark", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        digests.append((out / "report.json").read_bytes())
    report_line(
        "criterion 9: benchmark reports are byte-identical",
        digests[0] == digests[1] == digests[2],
        "three runs compared",
    )


def test_criterion_9_report_does_not_depend_on_blas_threads(tmp_path):
    # BLAS picks its kernels and blocking by thread count; the report must not change.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CRITERION_9_CONFIG))
    src = str(Path(koopmpc.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "koopmpc.cli", "benchmark", "--config", str(cfg_path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        reports.append((out / "report.json").read_bytes())
    report_line(
        "criterion 9: benchmark reports do not depend on the BLAS thread count",
        reports[0] == reports[1],
        "OPENBLAS_NUM_THREADS=1 and =2 compared",
    )
