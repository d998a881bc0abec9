import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmpc import (
    BoxPartition,
    ControlledChain,
    DelaySpec,
    MpcConfig,
    InsufficientDataError,
    MissingHistoryError,
    NoEigenfunctionError,
    SampleSet,
    Trajectory,
    UnknownLevelError,
    fit_delay_augmented,
    fit_dmdc,
    fit_edmdc,
    fit_parametrized,
    identify_eigenfunctions,
    lstsq_min_norm,
    monomials_dictionary,
    mpc_step,
    plant_derivatives,
    predict_rollout,
    propagate_density,
    simulate,
    snapshots_from_trajectories,
)
from koopmpc.dynamics import ForcingSignal
from koopmpc.numerics import level_index
from koopmpc.transfer import TransitionMatrix
from conftest import A0, B0, discrete_linear_samples, simulate_discrete


class TestFitDmdc:
    def test_exact_recovery(self):
        data = discrete_linear_samples(m=50, seed=0)
        model = fit_dmdc(data)
        assert np.linalg.norm(model.a - A0) < 1e-10
        assert np.linalg.norm(model.b - B0) < 1e-10
        assert np.array_equal(model.c, np.eye(2))

    def test_zero_inputs_kill_input_channel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 40))
        data = SampleSet(x=x, xp=A0 @ x, u=np.zeros((1, 40)), dt=0.1)
        model = fit_dmdc(data)
        assert np.max(np.abs(model.b)) < 1e-12
        plain = lstsq_min_norm(x.T, (A0 @ x).T).T
        assert np.max(np.abs(model.a - plain)) < 1e-10

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_dmdc(discrete_linear_samples(m=2))

    def test_input_scaling_equivariance(self):
        data = discrete_linear_samples(m=60, seed=4)
        base = fit_dmdc(data)
        for s in (0.5, 2.0):
            scaled = SampleSet(x=data.x, xp=data.xp, u=s * data.u, dt=data.dt)
            model = fit_dmdc(scaled)
            assert np.max(np.abs(model.b * s - base.b)) < 1e-8
            assert np.max(np.abs(model.a - base.a)) < 1e-8

    def test_training_residual_is_locally_optimal(self):
        rng = np.random.default_rng(12)
        data = discrete_linear_samples(m=30, seed=3)
        noisy = SampleSet(
            x=data.x, xp=data.xp + 0.01 * rng.standard_normal(data.xp.shape),
            u=data.u, dt=data.dt,
        )
        model = fit_dmdc(noisy)

        def residual(a, b):
            return np.linalg.norm(a @ noisy.x + b @ noisy.u - noisy.xp)

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
            plain = fit_dmdc(data)
            lifted = fit_edmdc(data, monomials_dictionary(2, 1))
            assert np.max(np.abs(plain.a - lifted.a)) < 1e-12
            assert np.max(np.abs(plain.b - lifted.b)) < 1e-12

    def test_slow_manifold_closure(self, slow_manifold):
        # The span of {x1, x2, x1^2} is exactly invariant for this plant, so
        # the lifted fit reproduces the integrator to rounding accuracy.
        dic = monomials_dictionary(2, 2).subset([0, 1, 2])
        rng = np.random.default_rng(6)
        trajs = []
        for _ in range(40):
            x0 = rng.uniform(-1.5, 1.5, 2)
            trajs.append(simulate(slow_manifold, x0, ForcingSignal.zero(1), 0.1, 0.01))
        data = snapshots_from_trajectories(trajs, 0.01)
        model = fit_edmdc(data, dic)
        truth = simulate(slow_manifold, [1.2, -0.8], ForcingSignal.zero(1), 1.0, 0.01)
        pred = predict_rollout(model, truth.states[:, 0], truth.inputs)
        rms = np.sqrt(np.mean((pred.states - truth.states) ** 2))
        assert rms <= 1e-6

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_edmdc(discrete_linear_samples(m=4), monomials_dictionary(2, 2))


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
        delay = fit_delay_augmented(trajs, DelaySpec(1, 1))
        plain = fit_dmdc(snapshots_from_trajectories(trajs, 0.1))
        assert np.array_equal(delay.a, plain.a)
        assert np.array_equal(delay.b, plain.b)

    def test_structural_blocks_are_exact(self):
        trajs = self._linear_trajs()
        d = 4
        model = fit_delay_augmented(trajs, DelaySpec(d, d))
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
        model = fit_delay_augmented(trajs, DelaySpec(5, 5), coords=(0,))
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

    def test_short_trajectory_raises(self):
        trajs = self._linear_trajs(n_traj=1, steps=3)
        with pytest.raises(InsufficientDataError):
            fit_delay_augmented(trajs, DelaySpec(5, 5))


class TestFitParametrized:
    def test_recovers_level_shifted_operator(self):
        rng = np.random.default_rng(5)
        levels = [-1.0, 0.0, 1.0]
        xs, xps, us = [], [], []
        for lv in levels:
            x = rng.standard_normal((2, 30))
            xs.append(x)
            xps.append((A0 + lv * np.eye(2)) @ x)
            us.append(np.full((1, 30), lv))
        data = SampleSet(x=np.hstack(xs), xp=np.hstack(xps), u=np.hstack(us), dt=0.1)
        family = fit_parametrized(data, monomials_dictionary(2, 1), levels)
        for lv, mat in zip(levels, family.mats):
            assert np.linalg.norm(mat - (A0 + lv * np.eye(2))) < 1e-8

    def test_single_level_is_plain_dmd(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 25))
        data = SampleSet(x=x, xp=A0 @ x, u=np.zeros((1, 25)), dt=0.1)
        family = fit_parametrized(data, monomials_dictionary(2, 1), [0.0])
        plain = lstsq_min_norm(x.T, (A0 @ x).T).T
        assert np.max(np.abs(family.mats[0] - plain)) < 1e-12

    def test_absent_level_raises(self):
        data = discrete_linear_samples(m=30, seed=7)
        with pytest.raises(InsufficientDataError):
            fit_parametrized(data, monomials_dictionary(2, 1), [123.0])

    def test_json_round_trip(self, tmp_path):
        from koopmpc.io import family_from_json, family_to_json

        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 30))
        data = SampleSet(x=x, xp=A0 @ x, u=np.zeros((1, 30)), dt=0.1)
        family = fit_parametrized(data, monomials_dictionary(2, 2), [0.0])
        path = tmp_path / "family.json"
        family_to_json(family, path)
        back = family_from_json(path)
        assert np.allclose(back.mats[0], family.mats[0])
        assert back.dt == family.dt
        assert np.array_equal(back.c, family.c)
        assert back.lifting.labels == family.lifting.labels


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
        xdot = plant_derivatives(slow_manifold, x)
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
        xdot = plant_derivatives(slow_manifold, x)
        with pytest.raises(NoEigenfunctionError) as exc:
            identify_eigenfunctions(x, xdot, monomials_dictionary(2, 2), 10.0)
        assert exc.value.residual > 1.0

    def test_residual_history_is_nonincreasing(self, slow_manifold):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, (2, 300))
        xdot = plant_derivatives(slow_manifold, x)
        entry = identify_eigenfunctions(x, xdot, monomials_dictionary(2, 3), -1.0)
        hist = entry.residual_history
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_sparsity_reports_active_terms(self, slow_manifold):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, (2, 300))
        xdot = plant_derivatives(slow_manifold, x)
        entry = identify_eigenfunctions(x, xdot, monomials_dictionary(2, 2), -1.0)
        assert entry.sparsity == 2  # x2 and x1^2
        assert entry.support(threshold=1e-6) == (1, 2)


class TestEigenfunctionModel:
    def test_values_evolve_linearly_along_the_flow(self, slow_manifold):
        from koopmpc import EigenfunctionModel

        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, (2, 300))
        xdot = plant_derivatives(slow_manifold, x)
        theta = monomials_dictionary(2, 2)
        entries = [
            identify_eigenfunctions(x, xdot, theta, lam) for lam in (-0.05, -1.0)
        ]
        model = EigenfunctionModel(library=theta, entries=entries)
        traj = simulate(slow_manifold, [1.0, 0.5], ForcingSignal.zero(1), 2.0, 0.01)
        vals = model.evaluate(traj.states)
        for j, lam in enumerate(model.eigenvalues):
            expected = vals[j, 0] * np.exp(lam * traj.times)
            assert np.max(np.abs(vals[j] - expected)) < 1e-6

    def test_known_gain_coupling_matches_gradient(self, slow_manifold):
        from koopmpc import EigenfunctionModel

        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, (2, 300))
        xdot = plant_derivatives(slow_manifold, x)
        theta = monomials_dictionary(2, 2)
        entry = identify_eigenfunctions(x, xdot, theta, -1.0)
        model = EigenfunctionModel(library=theta, entries=[entry])
        coupling = model.attach_known_coupling(lambda x: np.array([[0.0], [1.0]]))
        # phi = c2 x2 + c3 x1^2, so grad(phi) . (0, 1) = c2 everywhere.
        for probe in (np.array([0.3, -1.2]), np.array([-1.5, 0.4])):
            assert abs(coupling(probe)[0, 0] - entry.coefficients[1]) < 1e-12


class TestDerivativeFallback:
    def test_central_differences_track_the_field(self, slow_manifold):
        from koopmpc.sysid import difference_derivatives

        traj = simulate(slow_manifold, [1.0, -0.5], ForcingSignal.zero(1), 1.0, 0.01)
        x, xdot = difference_derivatives(traj)
        exact = plant_derivatives(slow_manifold, x)
        assert np.max(np.abs(xdot - exact)) < 1e-4


class TestPredictRollout:
    def test_zero_length_input_returns_start(self):
        model = fit_dmdc(discrete_linear_samples(m=40, seed=1))
        traj = predict_rollout(model, np.array([0.4, -0.2]), np.zeros((1, 0)))
        assert traj.states.shape == (2, 1)
        assert np.allclose(traj.states[:, 0], [0.4, -0.2])

    def test_exact_linear_rollout(self):
        model = fit_dmdc(discrete_linear_samples(m=50, seed=2))
        rng = np.random.default_rng(11)
        u = rng.standard_normal((1, 100))
        x0 = np.array([1.0, -1.0])
        pred = predict_rollout(model, x0, u)
        truth = simulate_discrete(A0, B0, x0, u)
        assert np.max(np.abs(pred.states - truth)) < 1e-8

    def test_delay_requires_history(self):
        trajs = TestFitDelayAugmented._linear_trajs()
        model = fit_delay_augmented(trajs, DelaySpec(3, 3))
        with pytest.raises(MissingHistoryError):
            predict_rollout(model, np.zeros(2), np.zeros((1, 5)))

    def test_parametrized_off_grid_input_raises(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 30))
        data = SampleSet(x=x, xp=A0 @ x, u=np.zeros((1, 30)), dt=0.1)
        family = fit_parametrized(data, monomials_dictionary(2, 1), [0.0])
        with pytest.raises(UnknownLevelError):
            predict_rollout(family, np.ones(2), np.array([[0.5]]))

    def test_parametrized_rollout_selects_levels(self):
        rng = np.random.default_rng(14)
        levels = [0.0, 1.0]
        mats = [A0, A0 + np.eye(2)]
        xs, xps, us = [], [], []
        for lv, m in zip(levels, mats):
            x = rng.standard_normal((2, 30))
            xs.append(x)
            xps.append(m @ x)
            us.append(np.full((1, 30), lv))
        data = SampleSet(x=np.hstack(xs), xp=np.hstack(xps), u=np.hstack(us), dt=0.1)
        family = fit_parametrized(data, monomials_dictionary(2, 1), levels)
        u_seq = np.array([[0.0, 1.0, 1.0]])
        pred = predict_rollout(family, np.array([1.0, 2.0]), u_seq)
        expected = mats[1] @ mats[1] @ mats[0] @ np.array([1.0, 2.0])
        assert np.max(np.abs(pred.states[:, -1] - expected)) < 1e-8


class TestLevelIndex:
    LEVELS = (np.array([-1.0]), np.array([0.0]), np.array([2.5]))

    def test_matches_within_tolerance(self):
        assert level_index(self.LEVELS, [0.0]) == 1
        assert level_index(self.LEVELS, 2.5 + 1e-10) == 2
        with pytest.raises(UnknownLevelError):
            level_index(self.LEVELS, [2.5 + 1e-8])
        with pytest.raises(UnknownLevelError):
            level_index(self.LEVELS, [0.0, 0.0])

    def test_families_and_chains_share_one_lookup(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 30))
        data = SampleSet(
            x=np.hstack([x] * 3),
            xp=np.hstack([A0 @ x] * 3),
            u=np.repeat(np.array(self.LEVELS).T, 30, axis=1),
            dt=0.1,
        )
        family = fit_parametrized(data, monomials_dictionary(2, 1), self.LEVELS)
        tm = TransitionMatrix(p=np.eye(2), tau=1.0)
        chain = ControlledChain(
            levels=self.LEVELS, mats=(tm,) * 3, partition=BoxPartition.regular([[0.0, 1.0]], [2])
        )
        for owner in (family, chain):
            assert not hasattr(owner, "level_index")
        z = family.lift(np.ones(2))
        assert np.array_equal(family.step(z, [2.5]), family.mats[2] @ z)
        with pytest.raises(UnknownLevelError):
            family.step(z, [1.0])
        with pytest.raises(UnknownLevelError):
            propagate_density(chain, [1.0, 0.0], [np.array([1.0])])


@functools.lru_cache(maxsize=None)
def _small_study():
    """dmdc, edmdc, full-state and x1-only delay models on a small van der Pol study."""
    from koopmpc.benchmark import fit_models, make_training_data, make_validation_trajectories
    from koopmpc.config import config_from_mapping

    cfg = config_from_mapping({"seed": 4, "n_trajectories": 30, "n_validation": 3})
    plant, trajs, samples = make_training_data(cfg)
    models = fit_models(cfg, trajs, samples)
    models["delay-x1"] = fit_delay_augmented(trajs, DelaySpec(5, 5), coords=(0,))
    return models, make_validation_trajectories(cfg, plant)


MODEL_NAMES = ("dmdc", "edmdc", "delay", "delay-x1")


class TestLiftingInterface:
    @given(name=st.sampled_from(MODEL_NAMES), n_steps=st.integers(5, 12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lift_many_columns_match_lift(self, name, n_steps, data):
        model = _small_study()[0][name]
        states = data.draw(arrays(float, (2, n_steps + 1), elements=st.floats(-3.0, 3.0)))
        inputs = data.draw(arrays(float, (1, n_steps), elements=st.floats(-3.0, 3.0)))
        traj = Trajectory(times=np.arange(n_steps + 1) * model.dt, states=states, inputs=inputs)
        h = model.lifting.history_steps
        z = model.lifting.lift_many(traj)
        assert z.shape == (model.lifted_dim, n_steps - h)
        for k in range(n_steps - h):
            expected = model.lift(
                states[:, k + h], history_states=states[:, : k + h], history_inputs=inputs[:, : k + h]
            )
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
        model = _small_study()[0][name]
        traj = _small_study()[1][0]
        k = 7
        history = dict(history_states=traj.states[:, :k], history_inputs=traj.inputs[:, :k])
        cfg = MpcConfig(q=np.eye(2), ru=0.1, rdu=0.1, horizon=10, u_min=-5.0, u_max=5.0)
        step = mpc_step(model, traj.states[:, k], traj.inputs[:, k - 1], cfg, **history)
        pred = predict_rollout(model, traj.states[:, k], step.input_sequence, **history)
        assert np.array_equal(step.predicted_states, pred.states)
