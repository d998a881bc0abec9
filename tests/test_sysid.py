import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import koopmpc
from koopmpc import (
    CondensedMpc,
    Dictionary,
    MpcConfig,
    InsufficientDataError,
    InvalidInputError,
    LinearControlModel,
    MissingHistoryError,
    NoEigenfunctionError,
    Trajectory,
    fit_delay_augmented,
    fit_dmdc,
    fit_edmdc,
    identify_eigenfunctions,
    lstsq_min_norm,
    monomials_dictionary,
    mpc_step,
    predict_rollout,
    simulate,
)
from koopmpc.dynamics import ForcingSignal
from koopmpc.sysid import rollout_from_lifted
from conftest import (
    A0, B0, ZeroForcing, discrete_linear_samples, one_step_paths, paths, reference_lift, simulate_discrete,
)
from fit_reference import snapshot_columns


class TestFitDmdc:
    def test_exact_recovery(self):
        data = discrete_linear_samples(m=50, seed=0)
        model = fit_dmdc(data, 0.1)
        assert np.linalg.norm(model.a - A0) < 1e-10
        assert np.linalg.norm(model.b - B0) < 1e-10
        assert np.array_equal(model.c, np.eye(2))

    def test_zero_inputs_kill_input_channel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 40))
        model = fit_dmdc(one_step_paths(x, A0 @ x, np.zeros((1, 40))), 0.1)
        assert np.max(np.abs(model.b)) < 1e-12
        plain = lstsq_min_norm(x.T, (A0 @ x).T).T
        assert np.max(np.abs(model.a - plain)) < 1e-10

    def test_equals_the_direct_state_regression_bitwise(self, vdp_training):
        _, trajs, dt = vdp_training
        model = fit_dmdc(trajs, dt)
        data = snapshot_columns(trajs, dt)
        w = lstsq_min_norm(np.vstack([data.x, data.u]).T, data.xp.T).T
        assert np.array_equal(model.a, w[:, :2]) and np.array_equal(model.b, w[:, 2:])
        assert model.fit_residual == math.sqrt(float(np.sum(np.square(w @ np.vstack([data.x, data.u]) - data.xp))))
        assert model.kind == "dmdc"
        assert model.lifting.labels == ("x1", "x2")

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_dmdc(discrete_linear_samples(m=2), 0.1)

    def test_input_scaling_equivariance(self):
        data = discrete_linear_samples(m=60, seed=4)
        base = fit_dmdc(data, 0.1)
        for s in (0.5, 2.0):
            model = fit_dmdc(Trajectory(data.times, data.states, s * data.inputs), 0.1)
            assert np.max(np.abs(model.b * s - base.b)) < 1e-8
            assert np.max(np.abs(model.a - base.a)) < 1e-8

    def test_training_residual_is_locally_optimal(self):
        rng = np.random.default_rng(12)
        data = snapshot_columns(discrete_linear_samples(m=30, seed=3), 0.1)
        noisy_xp = data.xp + 0.01 * rng.standard_normal(data.xp.shape)
        model = fit_dmdc(one_step_paths(data.x, noisy_xp, data.u), 0.1)

        def residual(a, b):
            return np.linalg.norm(a @ data.x + b @ data.u - noisy_xp)

        base = residual(model.a, model.b)
        for _ in range(100):
            da = rng.standard_normal(model.a.shape)
            db = rng.standard_normal(model.b.shape)
            scale = 1e-3 / np.sqrt(np.linalg.norm(da) ** 2 + np.linalg.norm(db) ** 2)
            assert residual(model.a + scale * da, model.b + scale * db) >= base - 1e-12


class TestFitEdmdc:
    def test_linear_monomials_reduce_to_dmdc(self):
        for seed in range(5):
            data = discrete_linear_samples(m=40, seed=seed)
            plain = fit_dmdc(data, 0.1)
            lifted = fit_edmdc(data, monomials_dictionary(2, 1), 0.1)
            assert np.max(np.abs(plain.a - lifted.a)) < 1e-12
            assert np.max(np.abs(plain.b - lifted.b)) < 1e-12

    def test_slow_manifold_closure(self, slow_manifold):
        # The span of {x1, x2, x1^2} is exactly invariant for this plant, so
        # the lifted fit reproduces the integrator to rounding accuracy.
        dic = Dictionary(2, monomials_dictionary(2, 2).exponents[[0, 1, 2]])
        rng = np.random.default_rng(6)
        trajs = []
        for _ in range(40):
            x0 = rng.uniform(-1.5, 1.5, 2)
            trajs.append(simulate(slow_manifold, x0, ZeroForcing(), 0.1, 0.01))
        model = fit_edmdc(trajs, dic, 0.01)
        truth = simulate(slow_manifold, [1.2, -0.8], ZeroForcing(), 1.0, 0.01)
        pred = predict_rollout(model, truth.states[:, 0], truth.inputs)
        rms = np.sqrt(np.mean((pred.states - truth.states) ** 2))
        assert rms <= 1e-6

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_edmdc(discrete_linear_samples(m=4), monomials_dictionary(2, 2), 0.1)

    def test_fit_residual_does_not_depend_on_blas_threads(self):
        # The default study's 21 x 4,000 residual is large enough for a
        # threaded BLAS to split its sums; the written residual must not change.
        script = (
            "from koopmpc.benchmark import fit_models, make_training_data\n"
            "from koopmpc.config import ExperimentConfig\n"
            "cfg = ExperimentConfig(models=['edmdc'])\n"
            "_, trajectories, dt = make_training_data(cfg)\n"
            "print(fit_models(cfg, trajectories, dt)['edmdc'].fit_residual.hex())\n"
        )
        src = str(Path(koopmpc.__file__).resolve().parents[1])
        residuals = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            residuals.append(done.stdout)
        assert residuals[0] == residuals[1]


class TestFitDelayAugmented:
    @staticmethod
    def _linear_trajs(n_traj=6, steps=30, seed=2):
        rng = np.random.default_rng(seed)
        trajs = []
        for _ in range(n_traj):
            u = rng.standard_normal((1, steps))
            states = simulate_discrete(A0, B0, rng.standard_normal(2), u)
            trajs.append(Trajectory(times=np.arange(steps + 1) * 0.1, states=states, inputs=u))
        return trajs

    def test_depth_one_equals_dmdc(self):
        trajs = self._linear_trajs()
        delay = fit_delay_augmented(trajs, 1, 0.1)
        plain = fit_dmdc(trajs, 0.1)
        assert np.array_equal(delay.a, plain.a)
        assert np.array_equal(delay.b, plain.b)

    def test_structural_blocks_are_exact(self):
        trajs = self._linear_trajs()
        d = 4
        model = fit_delay_augmented(trajs, d, 0.1)
        n_e = 2
        z_dim = d * n_e
        a, b = model.a, model.b
        # State block below the regressed rows: shift identity.
        for j in range(1, d):
            block = a[j * n_e : (j + 1) * n_e]
            expected = np.zeros_like(block)
            expected[:, (j - 1) * n_e : j * n_e] = np.eye(n_e)
            assert np.array_equal(block, expected)
        # Stored-input rows: zero in a, with the shift over past inputs.
        assert np.array_equal(a[z_dim], np.zeros(a.shape[1]))
        for j in range(1, d - 1):
            row = a[z_dim + j]
            expected = np.zeros_like(row)
            expected[z_dim + j - 1] = 1.0
            assert np.array_equal(row, expected)
        # Single-input column: current input lands in the newest stored slot.
        assert b[z_dim, 0] == 1.0
        assert np.array_equal(b[z_dim + 1 :], np.zeros((d - 2, 1)))
        # Recovery reads the newest sample.
        assert np.array_equal(model.c, np.hstack([np.eye(n_e), np.zeros((n_e, a.shape[1] - n_e))]))

    def test_partial_observation_rollout(self, linear_plant):
        # Damped oscillator observed through x1 only; depth-5 delays recover
        # the hidden dynamics well enough for a long rollout.
        rng = np.random.default_rng(9)
        trajs = []
        for _ in range(30):
            x0 = rng.uniform(-2, 2, 2)
            w = rng.normal(0, 5, 2)
            trajs.append(
                simulate(linear_plant, x0, ForcingSignal.product_sines(1.0, w[0], w[1]), 3.0, 0.05)
            )
        model = fit_delay_augmented(trajs, 5, 0.05, coords=(0,))
        test = simulate(
            linear_plant, [1.0, 0.0], ForcingSignal.product_sines(1.0, 2.0, 3.0), 3.0, 0.05
        )
        start = 4
        horizon = 50
        pred = predict_rollout(
            model,
            test.states[:, start],
            test.inputs[:, start : start + horizon],
            history_states=test.states[:, :start],
            history_inputs=test.inputs[:, :start],
        )
        truth = test.states[0, start : start + horizon + 1]
        rms = np.sqrt(np.mean((pred.states[0] - truth) ** 2))
        assert rms < 1e-3

    @pytest.mark.parametrize("coords", [None, (0,)])
    @pytest.mark.parametrize("lengths", [[30] * 6, [30, 30, 12, 25, 25, 30, 9]])
    def test_stacked_regressor_fit_is_bitwise_the_hstack_fit(self, coords, lengths):
        rng = np.random.default_rng(len(lengths))
        trajs = []
        for steps in lengths:
            u = rng.standard_normal((1, steps))
            states = simulate_discrete(A0, B0, rng.standard_normal(2), u)
            trajs.append(Trajectory(times=np.arange(steps + 1) * 0.1, states=states, inputs=u))
        model = fit_delay_augmented(trajs, 4, 0.1, coords=coords)
        # The regression on per-trajectory lift_windows columns, joined by hstack.
        h, rows = model.lifting.history_steps, list(model.lifting.coords)
        reg = np.vstack([
            np.hstack([model.lifting.lift_windows(traj.states[:, :-1], traj.inputs) for traj in trajs]),
            np.hstack([traj.inputs[:, h:] for traj in trajs]),
        ])
        target = np.hstack([traj.states[rows, h + 1 :] for traj in trajs])
        w = lstsq_min_norm(reg.T, target.T).T
        dim, n_e = model.lifting.n_out, len(rows)
        assert np.array_equal(model.a[:n_e], w[:, :dim])
        assert np.array_equal(model.b[:n_e], w[:, dim:])
        assert np.array_equal(model.c, np.hstack([np.eye(n_e), np.zeros((n_e, dim - n_e))]))
        assert model.fit_residual == math.sqrt(float(np.sum(np.square(w @ reg - target))))

    def test_coords_outside_the_state_raise(self):
        with pytest.raises(InvalidInputError, match="coords"):
            fit_delay_augmented(self._linear_trajs(), 2, 0.1, coords=(5,))

    def test_short_trajectory_raises(self):
        trajs = self._linear_trajs(n_traj=1, steps=3)
        with pytest.raises(InsufficientDataError):
            fit_delay_augmented(trajs, 5, 0.1)


class TestIdentifyEigenfunctions:
    def test_scalar_linear_eigenfunction(self):
        lam0 = -0.7
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (1, 100))
        xdot = lam0 * x
        theta = monomials_dictionary(1, 2)
        entry = identify_eigenfunctions(x, xdot, theta, lam0)
        assert entry.residual <= 1e-10
        assert abs(abs(entry.coefficients[0]) - 1.0) < 1e-8
        assert abs(entry.coefficients[1]) < 1e-8

    def test_slow_manifold_eigenfunction(self, slow_manifold):
        mu, lam = -0.05, -1.0
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, (2, 400))
        xdot = slow_manifold.rhs(x, np.zeros((1, x.shape[1])), 0.0)
        theta = monomials_dictionary(2, 2)
        entry = identify_eigenfunctions(x, xdot, theta, lam)
        b = lam / (lam - 2 * mu)
        target = np.zeros(5)
        target[1] = 1.0
        target[2] = -b
        target /= np.linalg.norm(target)
        assert np.max(np.abs(entry.coefficients - target)) <= 1e-6
        assert entry.residual <= 1e-8

    def test_off_spectrum_eigenvalue_raises(self, slow_manifold):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (2, 200))
        xdot = slow_manifold.rhs(x, np.zeros((1, x.shape[1])), 0.0)
        with pytest.raises(NoEigenfunctionError) as exc:
            identify_eigenfunctions(x, xdot, monomials_dictionary(2, 2), 10.0)
        assert exc.value.residual > 1.0

    def test_residual_history_is_nonincreasing(self, slow_manifold):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, (2, 300))
        xdot = slow_manifold.rhs(x, np.zeros((1, x.shape[1])), 0.0)
        entry = identify_eigenfunctions(x, xdot, monomials_dictionary(2, 3), -1.0)
        hist = entry.residual_history
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_sparsity_reports_active_terms(self, slow_manifold):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, (2, 300))
        xdot = slow_manifold.rhs(x, np.zeros((1, x.shape[1])), 0.0)
        entry = identify_eigenfunctions(x, xdot, monomials_dictionary(2, 2), -1.0)
        assert len(entry.support()) == 2  # x2 and x1^2
        assert entry.support(threshold=1e-6) == (1, 2)


class TestPredictRollout:
    def test_zero_length_input_returns_start(self):
        model = fit_dmdc(discrete_linear_samples(m=40, seed=1), 0.1)
        traj = predict_rollout(model, np.array([0.4, -0.2]), np.zeros((1, 0)))
        assert traj.states.shape == (2, 1)
        assert np.allclose(traj.states[:, 0], [0.4, -0.2])

    def test_exact_linear_rollout(self):
        model = fit_dmdc(discrete_linear_samples(m=50, seed=2), 0.1)
        rng = np.random.default_rng(11)
        u = rng.standard_normal((1, 100))
        x0 = np.array([1.0, -1.0])
        pred = predict_rollout(model, x0, u)
        truth = simulate_discrete(A0, B0, x0, u)
        assert np.max(np.abs(pred.states - truth)) < 1e-8

    def test_delay_requires_history(self):
        trajs = TestFitDelayAugmented._linear_trajs()
        model = fit_delay_augmented(trajs, 3, 0.1)
        with pytest.raises(MissingHistoryError):
            predict_rollout(model, np.zeros(2), np.zeros((1, 5)))


@functools.lru_cache(maxsize=None)
def _small_study():
    """dmdc, edmdc, full-state and x1-only delay models on a small van der Pol study,
    and its validation paths as a list of one-path trajectories."""
    from koopmpc.benchmark import fit_models, make_training_data, make_validation_trajectories
    from koopmpc.config import config_from_mapping

    cfg = config_from_mapping({"seed": 4, "n_trajectories": 30, "n_validation": 3})
    plant, trajs, dt = make_training_data(cfg)
    models = fit_models(cfg, trajs, dt)
    models["delay-x1"] = fit_delay_augmented(trajs, 5, dt, coords=(0,))
    return models, paths(make_validation_trajectories(cfg, plant))


MODEL_NAMES = ("dmdc", "edmdc", "delay", "delay-x1")


class TestModelShape:
    @pytest.mark.parametrize(
        "lifting, dim",
        [(koopmpc.identity_dictionary(2), 3), (koopmpc.DelayCoordinates(2, (0, 1), 2, 1), 4)],
        ids=["dictionary", "delay"],
    )
    def test_a_lifting_of_another_length_than_a_raises(self, lifting, dim):
        # Built, such a model would fail only in closed loop, in a numpy broadcast.
        ok = LinearControlModel(a=np.eye(lifting.n_out), b=np.ones((lifting.n_out, 1)),
                                c=np.eye(2, lifting.n_out), lifting=lifting, dt=0.1, kind="test")
        assert ok.lifted_dim == lifting.n_out
        with pytest.raises(InvalidInputError, match=f"the lifting gives {lifting.n_out} coordinates, but a is {dim} x {dim}"):
            LinearControlModel(a=np.eye(dim), b=np.ones((dim, 1)), c=np.eye(2, dim),
                               lifting=lifting, dt=0.1, kind="test")


class TestLiftingInterface:
    @given(name=st.sampled_from(MODEL_NAMES), n_steps=st.integers(5, 12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_model_lift_matches_the_reference_and_the_window_columns(self, name, n_steps, data):
        model = _small_study()[0][name]
        states = data.draw(arrays(float, (2, n_steps + 1), elements=st.floats(-3.0, 3.0)))
        inputs = data.draw(arrays(float, (1, n_steps), elements=st.floats(-3.0, 3.0)))
        h = model.lifting.history_steps
        z = model.lifting.lift_windows(states[:, :-1], inputs)
        assert z.shape == (model.lifted_dim, n_steps - h)
        for k in range(n_steps - h):
            history = dict(history_states=states[:, : k + h], history_inputs=inputs[:, : k + h])
            expected = reference_lift(model.lifting, states[:, k + h], **history)
            assert np.array_equal(model.lift(states[:, k + h], **history), expected)
            assert np.array_equal(z[:, k], expected)

    @given(
        names=st.sets(st.sampled_from(MODEL_NAMES), min_size=1),
        horizon=st.integers(1, 15),
    )
    @settings(max_examples=15, deadline=None)
    def test_one_step_rms_matches_per_step_rollouts(self, names, horizon):
        from koopmpc.benchmark import prediction_errors

        all_models, validation = _small_study()
        models = {name: all_models[name] for name in sorted(names)}
        errors = prediction_errors(models, validation, horizon)
        start = max(model.lifting.history_steps for model in models.values())
        for name, model in models.items():
            assert errors[name]["start_index"] == start
            coords = list(model.lifting.coords)
            for traj, got in zip(validation, errors[name]["one_step_rms"]):
                steps = []
                for k in range(start, start + horizon):
                    pred = predict_rollout(
                        model,
                        traj.states[:, k],
                        traj.inputs[:, k : k + 1],
                        history_states=traj.states[:, :k],
                        history_inputs=traj.inputs[:, :k],
                    ).states
                    steps.append(pred[:, 1] - traj.states[coords, k + 1])
                expected = float(np.sqrt(np.mean(np.square(steps))))
                assert abs(got - expected) <= 1e-8 * expected

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_mpc_plan_states_equal_predict_rollout(self, name):
        # The states the condensed QP weighs are those predict_rollout gives:
        # for the plan and for other plans, 0.5 u'Hu + g'u and the horizon cost
        # along predict_rollout's states differ by one constant.
        model = _small_study()[0][name]
        traj = _small_study()[1][0]
        k = 7
        x, u_prev = traj.states[:, k], traj.inputs[:, k - 1]
        history = dict(history_states=traj.states[:, :k], history_inputs=traj.inputs[:, :k])
        q, ref = np.diag([1.0, 2.0]), np.array([0.3, -0.2])
        cfg = MpcConfig(q=q, ru=0.1, rdu=0.2, horizon=10, u_min=-5.0, u_max=5.0, reference=ref)
        step = mpc_step(model, x, u_prev, cfg, **history)
        qp = CondensedMpc(model, cfg).qp(model.lift(x, **history), u_prev)
        coords = list(model.lifting.coords)
        q_rec, ref_rec = q[np.ix_(coords, coords)], ref[coords, None]

        def horizon_cost(u_seq):
            err = predict_rollout(model, x, u_seq, **history).states[:, 1:] - ref_rec
            du = np.diff(np.hstack([u_prev[:, None], u_seq]), axis=1)
            return np.sum(err * (q_rec @ err)) + 0.1 * np.sum(u_seq**2) + 0.2 * np.sum(du**2)

        def qp_objective(u_seq):
            v = u_seq.T.reshape(-1)
            return 0.5 * v @ qp.h @ v + qp.g @ v

        rng = np.random.default_rng(0)
        plans = [step.input_sequence] + [rng.uniform(-5.0, 5.0, (1, 10)) for _ in range(4)]
        costs = [horizon_cost(u) for u in plans]
        offsets = [c - qp_objective(u) for c, u in zip(costs, plans)]
        # The full-state delay model amplifies the two paths' rounding to about 4e-9 of the cost.
        assert np.allclose(offsets, offsets[0], rtol=0.0, atol=1e-8 * max(costs))


def _reference_prediction_errors(models, trajectories, horizon):
    """The per-trajectory scoring loop: one ``predict_rollout`` and one lift per trajectory."""
    start = max((model.lifting.history_steps for model in models.values()), default=0)
    out = {}
    for name, model in models.items():
        coords = list(model.lifting.coords)
        first = start - model.lifting.history_steps
        one_step, rollout, predictions = [], [], []
        for traj in trajectories:
            if traj.n_steps < start + horizon:
                raise InvalidInputError(f"a trajectory of {traj.n_steps} steps is too short")
            inputs = traj.inputs[:, start : start + horizon]
            truth = traj.states[coords, start + 1 : start + horizon + 1]
            pred = predict_rollout(
                model,
                traj.states[:, start],
                inputs,
                history_states=traj.states[:, :start],
                history_inputs=traj.inputs[:, :start],
            ).states
            predictions.append(pred)
            rollout.append(float(np.sqrt(np.mean((pred[:, 1:] - truth) ** 2))))
            z = model.lifting.lift_windows(traj.states[:, :-1], traj.inputs)[:, first : first + horizon]
            step = model.c @ (model.a @ z + model.b @ inputs)
            one_step.append(float(np.sqrt(np.mean((step - truth) ** 2))))
        out[name] = {"one_step_rms": one_step, "rollout_rms": rollout, "predictions": predictions}
    return out


def _truncated(traj, n_steps):
    return Trajectory(traj.times[: n_steps + 1], traj.states[:, : n_steps + 1], traj.inputs[:, :n_steps])


# Batched products sum in another order than the per-trajectory matrix-vector
# ones. Differences are bounded relative to the largest |state|: rounding
# level for dictionary models; the delay operators (entries in the hundreds)
# amplify it over the horizon (measured up to 2e-10 at 16 steps).
SCORE_TOL = {"dmdc": 1e-12, "edmdc": 1e-12, "delay": 1e-8, "delay-x1": 1e-8}


class TestBatchedScoring:
    @given(names=st.sets(st.sampled_from(MODEL_NAMES), min_size=1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_trajectory_loop(self, names, data):
        from koopmpc.benchmark import prediction_errors

        all_models, validation = _small_study()
        models = {name: all_models[name] for name in sorted(names)}
        start = max(model.lifting.history_steps for model in models.values())
        longest = min(traj.n_steps for traj in validation)
        lengths = data.draw(st.lists(st.integers(start + 1, longest), min_size=1, max_size=6))
        trajectories = [_truncated(validation[i % len(validation)], n) for i, n in enumerate(lengths)]
        horizon = data.draw(st.integers(1, longest - start))
        if min(lengths) < start + horizon:
            for score in (prediction_errors, _reference_prediction_errors):
                with pytest.raises(InvalidInputError, match="too short"):
                    score(models, trajectories, horizon)
            return
        got = prediction_errors(models, trajectories, horizon)
        expected = _reference_prediction_errors(models, trajectories, horizon)
        scale = max(np.max(np.abs(traj.states)) for traj in trajectories)
        for name in models:
            tol = SCORE_TOL[name] * scale
            assert got[name]["start_index"] == start
            assert len(got[name]["predictions"]) == len(trajectories)
            for key in ("one_step_rms", "rollout_rms"):
                assert np.max(np.abs(np.subtract(got[name][key], expected[name][key]))) <= tol
            for pred, ref in zip(got[name]["predictions"], expected[name]["predictions"]):
                assert pred.shape == ref.shape
                assert np.max(np.abs(pred - ref)) <= tol

    @pytest.mark.parametrize("horizon", [0, -1, 2.5])
    def test_horizon_below_one_raises(self, horizon):
        from koopmpc.benchmark import prediction_errors

        models, validation = _small_study()
        with pytest.raises(InvalidInputError, match="horizon must be an integer >= 1"):
            prediction_errors(models, validation, horizon)

    @pytest.mark.parametrize("name", ["dmdc", "edmdc"])
    def test_a_model_with_another_input_count_names_the_model(self, name):
        from koopmpc.benchmark import prediction_errors

        models, validation = _small_study()
        wide = dataclasses.replace(models[name], b=np.hstack([models[name].b, models[name].b]))
        with pytest.raises(InvalidInputError, match=r"^model 'wide' takes 2 inputs; the trajectories have 1$"):
            prediction_errors({name: models[name], "wide": wide}, validation, 15)

    def test_diverging_model_names_the_model_and_the_first_bad_trajectory(self):
        from koopmpc.benchmark import prediction_errors

        models, validation = _small_study()
        dmdc = models["dmdc"]
        blown = dataclasses.replace(dmdc, a=dmdc.a * 1e300)
        at_rest = Trajectory(validation[0].times, np.zeros_like(validation[0].states),
                             np.zeros_like(validation[0].inputs))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match=r"model 'blown'.* trajectory 1\b"):
                prediction_errors({"blown": blown}, [at_rest] + validation, 15)

    @given(
        name=st.sampled_from(MODEL_NAMES),
        n_cols=st.integers(1, 6),
        n_steps=st.integers(0, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rollout_over_columns_equals_single_column_rollouts(self, name, n_cols, n_steps, seed):
        model = _small_study()[0][name]
        rng = np.random.default_rng(seed)
        z = rng.uniform(-2.0, 2.0, (model.lifted_dim, n_cols))
        u = rng.uniform(-2.0, 2.0, (model.input_dim, n_cols, n_steps))
        batch = rollout_from_lifted(model, z, u)
        assert batch.shape == (model.recovered_dim, n_cols, n_steps + 1)
        # One step agrees to 1e-12 for every model; over more steps the delay
        # operators amplify the rounding as in the scoring above.
        tol = 1e-12 if n_steps <= 1 else SCORE_TOL[name]
        for i in range(n_cols):
            single = rollout_from_lifted(model, z[:, i], u[:, i])
            assert np.max(np.abs(batch[:, i] - single)) <= tol * np.max(np.abs(single))

    def test_rollout_rejects_inputs_of_another_batch(self):
        model = _small_study()[0]["dmdc"]
        with pytest.raises(InvalidInputError, match="do not match"):
            rollout_from_lifted(model, np.ones((2, 3)), np.zeros((1, 4)))

    @given(name=st.sampled_from(MODEL_NAMES), n_windows=st.integers(1, 4), extra=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_lift_windows_equals_one_window_per_trajectory(self, name, n_windows, extra):
        model, validation = _small_study()[0][name], _small_study()[1]
        n_samples = model.lifting.history_steps + extra
        trajs = [_truncated(validation[i % len(validation)], n_samples) for i in range(n_windows)]
        states = np.stack([traj.states[:, :-1] for traj in trajs], axis=1)
        inputs = np.stack([traj.inputs for traj in trajs], axis=1)
        batch = model.lifting.lift_windows(states, inputs)
        assert batch.shape == (model.lifted_dim, n_windows, extra)
        for i, traj in enumerate(trajs):
            assert np.array_equal(batch[:, i], model.lifting.lift_windows(traj.states[:, :-1], traj.inputs))
