import numpy as np
import pytest

from koopmpc import (
    ControlSystem,
    DivergenceError,
    ForcingSignal,
    InvalidInputError,
    Trajectory,
    make_vanderpol,
    product_sines_family,
    rk4_step,
    sample_training_set,
    simulate,
)
from koopmpc.dynamics import rk4_update
from koopmpc.io import (
    closed_loop_to_csv,
    sampleset_from_csv,
    sampleset_to_csv,
    trajectories_to_csv,
    trajectory_from_csv,
    trajectory_to_csv,
)
from koopmpc.mpc import ClosedLoopResult
from koopmpc.io import write_json, sampleset_manifest


class ExpRhs:
    def __call__(self, x, u, t):
        return x


class ZeroRhs:
    def __call__(self, x, u, t):
        return np.zeros_like(x)


class DecayRhs:
    def __call__(self, x, u, t):
        return -x


class TestVanDerPol:
    def test_origin_is_fixed_point(self):
        sys = make_vanderpol(0.2)
        assert np.allclose(sys.rhs(np.zeros(2), np.zeros(1), 0.0), 0.0)

    def test_derivative_at_one_one(self):
        sys = make_vanderpol(0.2)
        # x1' = x2 = 1; x2' = 0.2*(1-1)*1 - 1 + 0 = -1
        assert np.allclose(sys.rhs(np.array([1.0, 1.0]), np.zeros(1), 0.0), [1.0, -1.0])

    def test_input_enters_second_component(self):
        sys = make_vanderpol(0.2)
        assert np.allclose(sys.rhs(np.zeros(2), np.array([5.0]), 0.0), [0.0, 5.0])

    def test_rejects_non_finite_mu(self):
        with pytest.raises(InvalidInputError):
            make_vanderpol(np.inf)


class TestRk4:
    def test_batch_update_matches_rk4_step_per_column(self):
        sys = make_vanderpol(0.2)
        rng = np.random.default_rng(17)
        x = rng.uniform(-4.0, 4.0, size=(2, 9))
        u = rng.uniform(-5.0, 5.0, size=(1, 9))
        batch = rk4_update(sys.rhs, x, u, 0.3, 0.05)
        for k in range(x.shape[1]):
            assert np.array_equal(batch[:, k], rk4_step(sys, x[:, k], u[:, k], 0.3, 0.05))

    def test_zero_field_keeps_state(self):
        sys = ControlSystem(2, 1, ZeroRhs())
        x = np.array([1.5, -2.0])
        assert np.array_equal(rk4_step(sys, x, np.zeros(1), 0.0, 0.1), x)

    def test_exponential_one_step(self):
        sys = ControlSystem(1, 1, ExpRhs())
        out = rk4_step(sys, np.array([1.0]), np.zeros(1), 0.0, 0.05)
        assert abs(out[0] - np.exp(0.05)) < 3e-9

    def test_local_error_is_fifth_order(self):
        sys = ControlSystem(1, 1, ExpRhs())
        errs = []
        for dt in (0.05, 0.025):
            out = rk4_step(sys, np.array([1.0]), np.zeros(1), 0.0, dt)
            errs.append(abs(out[0] - np.exp(dt)))
        ratio = errs[0] / errs[1]
        assert 28.0 < ratio < 36.0

    def test_global_error_slope_is_four(self):
        sys = ControlSystem(1, 1, DecayRhs())
        dts = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = []
        for dt in dts:
            traj = simulate(sys, [1.0], ForcingSignal.zero(1), 1.0, dt)
            errs.append(abs(traj.states[0, -1] - np.exp(-1.0)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 4.0) < 0.2

    def test_divergence_raises(self):
        class BlowUp:
            def __call__(self, x, u, t):
                return x**2

        sys = ControlSystem(1, 1, BlowUp())
        with pytest.raises(DivergenceError):
            simulate(sys, [3.0], ForcingSignal.zero(1), 10.0, 0.5)


class TestSimulate:
    def test_zero_field_constant_trajectory(self):
        sys = ControlSystem(2, 1, ZeroRhs())
        traj = simulate(sys, [0.3, -0.7], ForcingSignal.zero(1), 1.0, 0.1)
        assert np.all(traj.states == traj.states[:, :1])

    def test_unstable_origin_grows(self):
        sys = make_vanderpol(0.2)
        traj = simulate(sys, [0.01, 0.0], ForcingSignal.zero(1), 10.0, 0.05)
        assert np.linalg.norm(traj.states[:, -1]) > np.linalg.norm(traj.states[:, 0])

    def test_step_count(self):
        sys = ControlSystem(2, 1, ZeroRhs())
        traj = simulate(sys, [0.0, 0.0], ForcingSignal.zero(1), 1.0, 0.05)
        assert traj.n_steps == 20
        assert traj.states.shape == (2, 21)

    def test_equals_repeated_rk4_steps_bitwise(self):
        sys = make_vanderpol(0.2)
        forcing = ForcingSignal.constant([1.3])
        traj = simulate(sys, [1.0, -0.5], forcing, 0.5, 0.05)
        x = np.array([1.0, -0.5])
        for k in range(traj.n_steps):
            x = rk4_step(sys, x, np.array([1.3]), k * 0.05, 0.05)
            assert np.array_equal(x, traj.states[:, k + 1])

    def test_divergence_carries_partial_trajectory(self):
        class BlowUp:
            def __call__(self, x, u, t):
                return x**2

        sys = ControlSystem(1, 1, BlowUp())
        with pytest.raises(DivergenceError) as exc:
            simulate(sys, [3.0], ForcingSignal.zero(1), 10.0, 0.5)
        partial = exc.value.partial
        assert isinstance(partial, Trajectory)
        assert partial.times.size >= 1


class TestForcing:
    def test_product_sines_formula(self):
        sig = ForcingSignal.product_sines(5.0, -2.0, 3.0)
        t = 0.37
        expected = 5.0 * np.sin(2.0 * t) * np.sin(3.0 * t)
        assert abs(sig.evaluate(t)[0] - expected) < 1e-14

    def test_piecewise_lookup(self):
        sig = ForcingSignal.piecewise([[1.0, 2.0, 3.0]], dt=0.5)
        assert sig.evaluate(0.0)[0] == 1.0
        assert sig.evaluate(0.74)[0] == 2.0
        assert sig.evaluate(5.0)[0] == 3.0  # held past the end


class TestSampleTrainingSet:
    def test_benchmark_column_count(self):
        sys = make_vanderpol(0.2)
        data = sample_training_set(
            sys, 200, [[-6, 6], [-6, 6]], 1.0, 0.05, product_sines_family(), 0
        )
        assert data.n_samples == 4000

    def test_single_step_single_column(self):
        sys = make_vanderpol(0.2)
        data = sample_training_set(
            sys, 1, [[-6, 6], [-6, 6]], 0.05, 0.05, product_sines_family(), 0
        )
        assert data.n_samples == 1

    def test_seed_determinism_is_bitwise(self):
        sys = make_vanderpol(0.2)
        args = (sys, 10, [[-6, 6], [-6, 6]], 0.5, 0.05, product_sines_family(), 123)
        d1 = sample_training_set(*args)
        d2 = sample_training_set(*args)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.xp, d2.xp)
        assert np.array_equal(d1.u, d2.u)

    def test_columns_match_one_step_simulation_bitwise(self):
        sys = make_vanderpol(0.2)
        data = sample_training_set(
            sys, 3, [[-6, 6], [-6, 6]], 0.25, 0.05, product_sines_family(), 5
        )
        for j in range(data.n_samples):
            step = rk4_step(sys, data.x[:, j], data.u[:, j], 0.0, 0.05)
            assert np.array_equal(step, data.xp[:, j])

    def test_initial_conditions_inside_box(self):
        sys = make_vanderpol(0.2)
        data = sample_training_set(
            sys, 20, [[-2, -1], [3, 4]], 0.05, 0.05, product_sines_family(0.0, 1.0), 2
        )
        assert np.all(data.x[0] >= -2) and np.all(data.x[0] <= -1)
        assert np.all(data.x[1] >= 3) and np.all(data.x[1] <= 4)


class TestSerialization:
    def test_trajectory_csv_round_trip(self, tmp_path):
        sys = make_vanderpol(0.2)
        traj = simulate(sys, [1.0, 0.5], ForcingSignal.product_sines(5, 1, 2), 0.5, 0.05)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        back = trajectory_from_csv(path, 2, 1)
        assert np.allclose(back.states, traj.states)
        assert np.allclose(back.inputs, traj.inputs)
        assert np.allclose(back.times, traj.times)

    @staticmethod
    def _two_step_trajectory():
        return Trajectory(
            times=[0.0, 0.5, 1.0],
            states=[[1.0, 2.0, 3.0], [-0.5, 0.25, 0.0]],
            inputs=[[0.1, -0.2]],
        )

    def test_trajectory_csv_exact_text(self, tmp_path):
        traj = self._two_step_trajectory()
        trajectory_to_csv(traj, tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == (
            b"t,x1,x2,u1\r\n"
            b"0.0,1.0,-0.5,0.1\r\n"
            b"0.5,2.0,0.25,-0.2\r\n"
            b"1.0,3.0,0.0,-0.2\r\n"
        )
        trajectories_to_csv([traj, traj], tmp_path / "trajs.csv")
        assert (tmp_path / "trajs.csv").read_bytes().splitlines()[3:5] == [
            b"0,1.0,3.0,0.0,-0.2",
            b"1,0.0,1.0,-0.5,0.1",
        ]

    def test_closed_loop_csv_exact_text(self, tmp_path):
        result = ClosedLoopResult(
            trajectory=self._two_step_trajectory(),
            stage_costs=np.array([0.5, 0.25]),
            cumulative_cost=np.array([0.5, 0.75]),
            solve_stats={},
        )
        closed_loop_to_csv(result, tmp_path / "cl.csv")
        assert (tmp_path / "cl.csv").read_bytes() == (
            b"t,x1,x2,u1,stage_cost,cumulative_cost\r\n"
            b"0.0,1.0,-0.5,0.1,0.5,0.5\r\n"
            b"0.5,2.0,0.25,-0.2,0.25,0.75\r\n"
            b"1.0,3.0,0.0,-0.2,nan,0.75\r\n"
        )

    def test_sampleset_csv_round_trip(self, tmp_path):
        sys = make_vanderpol(0.2)
        data = sample_training_set(
            sys, 2, [[-1, 1], [-1, 1]], 0.2, 0.05, product_sines_family(), 4
        )
        sampleset_to_csv(data, tmp_path / "s.csv")
        write_json(sampleset_manifest(data), tmp_path / "s.json")
        back = sampleset_from_csv(tmp_path / "s.csv", tmp_path / "s.json")
        assert np.allclose(back.x, data.x)
        assert np.allclose(back.xp, data.xp)
        assert np.allclose(back.u, data.u)
        assert back.dt == data.dt
