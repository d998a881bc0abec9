import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopmpc import (
    ControlSystem,
    DivergenceError,
    ForcingSignal,
    InvalidInputError,
    Trajectory,
    fit_dmdc,
    generate_training_trajectories,
    make_vanderpol,
    product_sines_family,
    rk4_step,
    simulate,
)
from koopmpc.dynamics import DIVERGENCE_LIMIT, _index_streams, _integrate_columns, rk4_update
from koopmpc.io import closed_loop_to_csv, trajectories_from_csv, trajectories_to_csv
from koopmpc.mpc import ClosedLoopResult
from koopmpc.transfer import _flow_batch
from conftest import ZeroForcing, one_step_paths, paths
from fit_reference import snapshot_columns
from rk4_reference import reference_rk4_step, reference_rk4_update, reference_vanderpol


class ExpRhs:
    def __call__(self, x, u, t):
        return x


class ZeroRhs:
    def __call__(self, x, u, t):
        return np.zeros_like(x)


class DecayRhs:
    def __call__(self, x, u, t):
        return [-v for v in x]


def training_set(sys, n_traj, box, t_end, dt, forcing_family, seed):
    """Snapshot pairs of forced training trajectories, as the benchmark builds them."""
    trajectories, _ = generate_training_trajectories(
        sys, n_traj, box, t_end, dt, forcing_family, seed
    )
    return snapshot_columns(trajectories, dt)


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

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(-3.0, 3.0), m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_field_equals_the_stacked_formula_bitwise(self, mu, m, seed):
        rhs = make_vanderpol(mu).rhs
        rng = np.random.default_rng(seed)
        for shape in ((), (m,)):
            x = rng.uniform(-5.0, 5.0, (2, *shape))
            u = rng.uniform(-5.0, 5.0, (1, *shape))
            x1, x2 = x[0], x[1]
            want = np.stack([x2, mu * (1.0 - x1 * x1) * x2 - x1 + u[0]])
            # One state's coordinates are Python floats, a batch's are rows.
            got = np.array(rhs(*((x.tolist(), u.tolist()) if x.ndim == 1 else (x, u)), 0.0))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestRk4:
    def test_batch_update_matches_rk4_step_per_column(self):
        sys = make_vanderpol(0.2)
        rng = np.random.default_rng(17)
        x = rng.uniform(-4.0, 4.0, size=(2, 9))
        u = rng.uniform(-5.0, 5.0, size=(1, 9))
        batch = np.array(rk4_update(sys.rhs, x, u, 0.3, 0.05))
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
            traj = simulate(sys, [1.0], ZeroForcing(), 1.0, dt)
            errs.append(abs(traj.states[0, -1] - np.exp(-1.0)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 4.0) < 0.2

    def test_divergence_raises(self):
        class BlowUp:
            def __call__(self, x, u, t):
                return [v * v for v in x]

        sys = ControlSystem(1, 1, BlowUp())
        with pytest.raises(DivergenceError):
            simulate(sys, [3.0], ZeroForcing(), 10.0, 0.5)

    def test_finite_state_past_the_limit_raises(self):
        sys = ControlSystem(1, 1, ZeroRhs())
        at_limit = np.array([DIVERGENCE_LIMIT])
        assert np.array_equal(rk4_step(sys, at_limit, np.zeros(1), 0.0, 0.1), at_limit)
        with pytest.raises(DivergenceError):
            rk4_step(sys, np.array([2.0 * DIVERGENCE_LIMIT]), np.zeros(1), 0.0, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_raises(self, bad):
        sys = ControlSystem(2, 1, ZeroRhs())
        with pytest.raises(DivergenceError):
            rk4_step(sys, np.array([0.0, bad]), np.zeros(1), 0.0, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([
                    DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT, np.nextafter(DIVERGENCE_LIMIT, np.inf),
                    -np.nextafter(DIVERGENCE_LIMIT, np.inf), np.nextafter(DIVERGENCE_LIMIT, 0.0), 0.0,
                ]),
                st.floats(-2.0 * DIVERGENCE_LIMIT, 2.0 * DIVERGENCE_LIMIT),
            ),
            min_size=1,
            max_size=12,
        ),
        columns=st.integers(0, 3),
        grow=st.booleans(),
    )
    @example(entries=[0.0, np.nan], columns=0, grow=False)
    @example(entries=[1.0, 2.0, -np.inf, 3.0], columns=2, grow=False)
    @example(entries=[-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT], columns=1, grow=False)
    def test_divergence_is_the_elementwise_limit_check(self, entries, columns, grow):
        # A 1-D state, or a 2-D one of `columns` columns; the zero field returns the state itself.
        n = len(entries) if columns == 0 else -(-len(entries) // columns)
        x = np.resize(np.array(entries), n if columns == 0 else (n, columns))
        sys = ControlSystem(n, 1, ExpRhs() if grow else ZeroRhs())
        u = np.zeros(1 if columns == 0 else (1, columns))
        with np.errstate(all="ignore"):
            want = np.array(rk4_update(sys.rhs, x, u, 0.0, 1e-3))
            if (np.abs(want) <= DIVERGENCE_LIMIT).all():
                assert rk4_step(sys, x, u, 0.0, 1e-3).tobytes() == want.tobytes()
            else:
                with pytest.raises(DivergenceError):
                    rk4_step(sys, x, u, 0.0, 1e-3)


# State coordinates: signed zeros, subnormals, the limit and past it, overflow, NaN and inf.
STATE_COORDINATES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT,
        np.nextafter(DIVERGENCE_LIMIT, np.inf), 2e6, -1e8, 1e154, -1e200, np.nan, np.inf, -np.inf,
    ]),
    st.floats(-5.0, 5.0),
    st.floats(-1e-300, 1e-300),
    st.floats(-2.0 * DIVERGENCE_LIMIT, 2.0 * DIVERGENCE_LIMIT),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestCoordinateRk4:
    """One state runs on Python floats, a batch on rows, with the bits of the array-form step."""

    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.one_of(st.sampled_from([0.0, 2.0, 0.2]), st.floats(-3.0, 3.0)),
        coords=st.lists(STATE_COORDINATES, min_size=2, max_size=2),
        u=st.one_of(st.sampled_from([0.0, -0.0, 5.0, -5.0]), st.floats(-10.0, 10.0)),
        t=st.floats(0.0, 100.0),
        dt=st.one_of(st.sampled_from([0.05, 0.1]), st.floats(1e-4, 1.0)),
    )
    @example(mu=0.0, coords=[0.0, -0.0], u=-0.0, t=0.0, dt=0.05)
    @example(mu=2.0, coords=[5e-324, -5e-324], u=0.0, t=0.0, dt=0.05)
    @example(mu=0.2, coords=[np.nan, 0.0], u=1.0, t=0.3, dt=0.05)
    @example(mu=0.2, coords=[1.0, np.inf], u=-1.0, t=0.3, dt=0.05)
    @example(mu=0.2, coords=[DIVERGENCE_LIMIT, 0.0], u=0.0, t=0.0, dt=1e-4)
    def test_rk4_step_is_the_array_step_bitwise(self, mu, coords, u, t, dt):
        x, u = np.array(coords), np.array([u])
        sys = make_vanderpol(mu)
        try:
            want = reference_rk4_step(reference_vanderpol(mu), x, u, t, dt)
        except DivergenceError as err:
            with pytest.raises(DivergenceError) as exc:
                rk4_step(sys, x, u, t, dt)
            assert str(exc.value) == str(err)
        else:
            got = rk4_step(sys, x, u, t, dt)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field, x0", [
        (lambda x, u, t: [v**2 for v in x], 1e200),
        (lambda x, u, t: [1.0 / v for v in x], 0.0),
    ], ids=["overflow", "division-by-zero"])
    def test_a_float_arithmetic_error_is_a_divergence_as_on_arrays(self, field, x0):
        sys = ControlSystem(1, 1, field)
        x, u = np.array([x0]), np.zeros(1)
        with pytest.raises(DivergenceError) as exc, np.errstate(all="ignore"):
            rk4_step(sys, x, u, 0.0, 0.1)
        with pytest.raises(DivergenceError) as want, np.errstate(all="ignore"):
            reference_rk4_step(lambda x, u, t: np.array(field(x, u, t)), x, u, 0.0, 0.1)
        assert str(exc.value) == str(want.value)

    @settings(max_examples=100, deadline=None)
    @given(
        mu=st.one_of(st.sampled_from([0.0, 2.0]), st.floats(-3.0, 3.0)),
        coords=st.lists(STATE_COORDINATES, min_size=2, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_an_array_of_states_steps_on_its_rows_as_the_array_step(self, mu, coords, seed):
        x = np.resize(np.array(coords), (2, -(-len(coords) // 2)))
        u = np.random.default_rng(seed).uniform(-5.0, 5.0, (1, x.shape[1]))
        sys = make_vanderpol(mu)
        with np.errstate(all="ignore"):
            try:
                want = reference_rk4_step(reference_vanderpol(mu), x, u, 0.2, 0.05)
            except DivergenceError as err:
                with pytest.raises(DivergenceError) as exc:
                    rk4_step(sys, x, u, 0.2, 0.05)
                assert str(exc.value) == str(err)
            else:
                assert rk4_step(sys, x, u, 0.2, 0.05).tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        mu=st.one_of(st.sampled_from([0.0, 2.0, 0.2]), st.floats(-3.0, 3.0)),
        coords=st.lists(STATE_COORDINATES, min_size=2, max_size=16),
        inputs=st.lists(st.one_of(st.floats(-10.0, 10.0), st.sampled_from([np.nan, np.inf, -np.inf, -0.0])),
                        min_size=1, max_size=8),
        dt=st.one_of(st.sampled_from([0.05, 0.1]), st.floats(1e-4, 1.0)),
    )
    @example(mu=0.2, coords=[np.nan, 1.0, np.inf, -np.inf, 1e200, 0.5], inputs=[0.0, np.nan, 1.0], dt=0.05)
    def test_floats_rows_and_the_array_update_agree_bitwise_on_non_finite_columns(self, mu, coords, inputs, dt):
        # The update itself, with no divergence check: NaN and inf columns are compared too. A NaN's
        # sign and payload come from whichever NaN operand x86 arithmetic returns, which follows
        # operand order and numpy's choice of vector or scalar loop (the array step and the float
        # step already differ there), so every NaN is compared as the one canonical NaN.
        x = np.resize(np.array(coords), (2, -(-len(coords) // 2)))
        u = np.resize(np.array(inputs), (1, x.shape[1]))
        rhs = make_vanderpol(mu).rhs
        with np.errstate(all="ignore"):
            want = reference_rk4_update(reference_vanderpol(mu), x, u, 0.2, dt)
            rows = np.array(rk4_update(rhs, x, u, 0.2, dt))
            floats = [np.array(rk4_update(rhs, x[:, j].tolist(), u[:, j].tolist(), 0.2, dt))
                      for j in range(x.shape[1])]
        canonical = [np.where(np.isnan(a), np.nan, a).tobytes() for a in (want, rows, np.stack(floats, axis=1))]
        assert canonical[1] == canonical[0] and canonical[2] == canonical[0]

    @settings(max_examples=100, deadline=None)
    @given(
        mu=st.one_of(st.sampled_from([0.0, 2.0]), st.floats(-3.0, 3.0)),
        coords=st.lists(STATE_COORDINATES, min_size=2, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_update_writes_no_state_input_or_returned_array(self, mu, coords, seed):
        x = np.resize(np.array(coords), (2, -(-len(coords) // 2)))
        u = np.random.default_rng(seed).uniform(-5.0, 5.0, (1, x.shape[1]))
        field, returned = make_vanderpol(mu).rhs, []

        def recording(x, u, t):
            out = field(x, u, t)
            returned.extend((v, v.tobytes()) for v in out)
            return out

        before = x.tobytes(), u.tobytes()
        with np.errstate(all="ignore"):
            rk4_update(recording, x, u, 0.0, 0.05)
        assert (x.tobytes(), u.tobytes()) == before
        # Van der Pol returns its own input row x2 as the first derivative.
        assert np.shares_memory(returned[0][0], x)
        assert all(v.tobytes() == snapshot for v, snapshot in returned)

    @pytest.mark.parametrize("m", [1, 5])
    def test_a_float_derivative_of_a_row_batch_steps_as_the_full_row(self, m):
        x = np.random.default_rng(3).uniform(-2.0, 2.0, (2, m))
        u = np.zeros((1, m))
        got = rk4_update(lambda x, u, t: (x[1], -1.5), x, u, 0.0, 0.1)
        want = reference_rk4_update(lambda x, u, t: np.stack([x[1], np.full(x[1].shape, -1.5)]), x, u, 0.0, 0.1)
        assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("step", [rk4_update, lambda rhs, x, u, t, dt: rk4_step(ControlSystem(2, 1, rhs), x, u, t, dt)],
                             ids=["rk4_update", "rk4_step"])
    def test_a_derivative_smaller_than_its_row_raises_naming_the_rule(self, step):
        # A (1,) array broadcasts against a row of 5 but cannot take its sum in place.
        x, u = np.ones((2, 5)), np.zeros((1, 5))
        with pytest.raises(InvalidInputError, match="each derivative must be a float or an array of its state"):
            step(lambda x, u, t: (x[1], np.full(1, -1.5)), x, u, 0.0, 0.1)
        # A (1,) array is a one-column batch's full row, and steps.
        step(lambda x, u, t: (x[1], np.full(1, -1.5)), x[:, :1], u[:, :1], 0.0, 0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.floats(-1.0, 3.0),
        m=st.integers(1, 12),
        n_steps=st.integers(1, 20),
        scale=st.sampled_from([1.0, 4.0, 40.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integrated_columns_are_per_column_rk4_steps(self, mu, m, n_steps, scale, seed):
        # A scale of 40 lets some columns diverge; each column matches until it leaves the limit.
        rng = np.random.default_rng(seed)
        sys, dt = make_vanderpol(mu), 0.05
        x0 = rng.uniform(-scale, scale, (2, m))
        inputs = rng.uniform(-5.0, 5.0, (1, m, n_steps))
        times = np.arange(n_steps + 1) * dt
        states, steps = _integrate_columns(sys.rhs, x0, inputs, times, dt)
        for j in range(m):
            x = x0[:, j]
            for s in range(n_steps):
                try:
                    x = rk4_step(sys, x, inputs[:, j, s], times[s], dt)
                except DivergenceError:
                    assert steps[j] == s
                    break
                assert states[:, j, s + 1].tobytes() == x.tobytes()
            else:
                assert steps[j] == n_steps

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.floats(0.0, 2.0),
        m=st.integers(1, 12),
        level=st.floats(-5.0, 5.0),
        tau=st.sampled_from([0.05, 0.3, 0.5]),
        flow_dt=st.sampled_from([0.01, 0.03, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flowed_columns_are_per_column_rk4_steps(self, mu, m, level, tau, flow_dt, seed):
        # Damped plants over the chain's box: every column stays within the limit.
        sys = make_vanderpol(mu)
        x0 = np.random.default_rng(seed).uniform(-4.0, 4.0, (2, m))
        got = _flow_batch(sys, x0.copy(), np.array([level]), tau, flow_dt)
        n_sub = max(int(round(tau / flow_dt)), 1)
        h = tau / n_sub
        for j in range(m):
            x, t = x0[:, j], 0.0
            for _ in range(n_sub):
                x = rk4_step(sys, x, np.array([level]), t, h)
                t += h
            assert got[:, j].tobytes() == x.tobytes()


class TestNonFiniteTimesAndStates:
    SYS = make_vanderpol(0.2)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.1])
    def test_rk4_step_rejects_a_bad_dt(self, dt):
        with pytest.raises(InvalidInputError, match="dt must be positive and finite"):
            rk4_step(self.SYS, np.ones(2), np.zeros(1), 0.0, dt)

    @pytest.mark.parametrize(
        "t_end, dt", [(np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf), (np.nan, np.nan)]
    )
    def test_simulate_rejects_non_finite_times(self, t_end, dt):
        with pytest.raises(InvalidInputError, match="finite"):
            simulate(self.SYS, [1.0, 0.0], ZeroForcing(), t_end, dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_simulate_rejects_a_non_finite_x0(self, bad):
        with pytest.raises(InvalidInputError, match="x0 must be finite"):
            simulate(self.SYS, [bad, 0.0], ZeroForcing(), 1.0, 0.1)


class TestSimulate:
    def test_zero_field_constant_trajectory(self):
        sys = ControlSystem(2, 1, ZeroRhs())
        traj = simulate(sys, [0.3, -0.7], ZeroForcing(), 1.0, 0.1)
        assert np.all(traj.states == traj.states[:, :1])

    def test_unstable_origin_grows(self):
        sys = make_vanderpol(0.2)
        traj = simulate(sys, [0.01, 0.0], ZeroForcing(), 10.0, 0.05)
        assert np.linalg.norm(traj.states[:, -1]) > np.linalg.norm(traj.states[:, 0])

    def test_step_count(self):
        sys = ControlSystem(2, 1, ZeroRhs())
        traj = simulate(sys, [0.0, 0.0], ZeroForcing(), 1.0, 0.05)
        assert traj.n_steps == 20
        assert traj.states.shape == (2, 21)

    def test_equals_repeated_rk4_steps_bitwise(self):
        sys = make_vanderpol(0.2)
        forcing = ForcingSignal.product_sines(1.3, 2.0, 3.0)
        traj = simulate(sys, [1.0, -0.5], forcing, 0.5, 0.05)
        x = np.array([1.0, -0.5])
        for k in range(traj.n_steps):
            x = rk4_step(sys, x, forcing.evaluate(k * 0.05), k * 0.05, 0.05)
            assert np.array_equal(x, traj.states[:, k + 1])

    def test_divergence_carries_partial_trajectory(self):
        class BlowUp:
            def __call__(self, x, u, t):
                return [v * v for v in x]

        sys = ControlSystem(1, 1, BlowUp())
        with pytest.raises(DivergenceError) as exc:
            simulate(sys, [3.0], ZeroForcing(), 10.0, 0.5)
        partial = exc.value.partial
        assert isinstance(partial, Trajectory)
        assert partial.times.size >= 1

    def test_finite_divergence_partial_ends_at_last_state_within_the_limit(self):
        # x' = x grows by about 1.65 per RK4 step of 0.5: step 28 is the first
        # state past DIVERGENCE_LIMIT, and it is still finite.
        sys = ControlSystem(1, 1, ExpRhs())
        with pytest.raises(DivergenceError) as exc:
            simulate(sys, [1.0], ZeroForcing(), 20.0, 0.5)
        partial = exc.value.partial
        assert partial.n_steps == 27
        assert np.all(np.abs(partial.states) <= DIVERGENCE_LIMIT)
        nxt = rk4_update(sys.rhs, partial.states[:, -1], np.zeros(1), 0.0, 0.5)
        assert np.isfinite(nxt).all() and np.abs(nxt).max() > DIVERGENCE_LIMIT


class TestForcing:
    def test_product_sines_formula(self):
        sig = ForcingSignal.product_sines(5.0, -2.0, 3.0)
        t = 0.37
        expected = 5.0 * np.sin(2.0 * t) * np.sin(3.0 * t)
        assert abs(sig.evaluate(t)[0] - expected) < 1e-14



class TestSampleTrainingSet:
    def test_benchmark_column_count(self):
        sys = make_vanderpol(0.2)
        data = training_set(
            sys, 200, [[-6, 6], [-6, 6]], 1.0, 0.05, product_sines_family(), 0
        )
        assert data.x.shape == (2, 4000)

    def test_single_step_single_column(self):
        sys = make_vanderpol(0.2)
        data = training_set(
            sys, 1, [[-6, 6], [-6, 6]], 0.05, 0.05, product_sines_family(), 0
        )
        assert data.x.shape == (2, 1)

    def test_seed_determinism_is_bitwise(self):
        sys = make_vanderpol(0.2)
        args = (sys, 10, [[-6, 6], [-6, 6]], 0.5, 0.05, product_sines_family(), 123)
        d1 = training_set(*args)
        d2 = training_set(*args)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.xp, d2.xp)
        assert np.array_equal(d1.u, d2.u)

    def test_columns_match_one_step_simulation_bitwise(self):
        sys = make_vanderpol(0.2)
        data = training_set(
            sys, 3, [[-6, 6], [-6, 6]], 0.25, 0.05, product_sines_family(), 5
        )
        for j in range(data.x.shape[1]):
            step = rk4_step(sys, data.x[:, j], data.u[:, j], 0.0, 0.05)
            assert np.array_equal(step, data.xp[:, j])

    def test_initial_conditions_inside_box(self):
        sys = make_vanderpol(0.2)
        data = training_set(
            sys, 20, [[-2, -1], [3, 4]], 0.05, 0.05, product_sines_family(0.0, 1.0), 2
        )
        assert np.all(data.x[0] >= -2) and np.all(data.x[0] <= -1)
        assert np.all(data.x[1] >= 3) and np.all(data.x[1] <= 4)


class TestSerialization:
    def test_trajectory_csv_round_trip(self, tmp_path):
        sys = make_vanderpol(0.2)
        traj = simulate(sys, [1.0, 0.5], ForcingSignal.product_sines(5, 1, 2), 0.5, 0.05)
        path = tmp_path / "traj.csv"
        trajectories_to_csv([traj], path)
        (back,) = trajectories_from_csv(path, 2, 1)
        assert back.n_paths == 1
        assert np.allclose(back.states[:, 0], traj.states)
        assert np.allclose(back.inputs[:, 0], traj.inputs)
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
        trajectories_to_csv([traj], tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == (
            b"traj,t,x1,x2,u1\r\n"
            b"0,0.0,1.0,-0.5,0.1\r\n"
            b"0,0.5,2.0,0.25,-0.2\r\n"
            b"0,1.0,3.0,0.0,-0.2\r\n"
        )

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


class SquareRhs:
    """x' = x^2 + u, column by column: blows up in finite time from x0 > 0."""

    def __call__(self, x, u, t):
        return [a * a + b for a, b in zip(x, u)]


class SqrtRhs:
    """x' = sqrt(x) + u: NaN at once from x0 < 0, slow growth from x0 >= 0."""

    def __call__(self, x, u, t):
        return np.sqrt(x) + u


ONE_STATE_FIELDS = {"square": SquareRhs(), "sqrt": SqrtRhs()}


def reference_simulate(sys, x0, forcing, t_end, dt):
    """The per-step loop ``simulate`` had before the lockstep integrator.

    One scalar ``forcing.evaluate`` and one ``rk4_step`` per step; a step that
    leaves the limit raises DivergenceError with the trajectory before it.
    """
    n_steps = int(math.floor(t_end / dt + 1e-9))
    x = np.asarray(x0, dtype=float).reshape(-1)
    times = np.arange(n_steps + 1) * dt
    states = np.empty((sys.state_dim, n_steps + 1))
    inputs = np.empty((sys.input_dim, n_steps))
    states[:, 0] = x
    for k in range(n_steps):
        u = np.asarray(forcing.evaluate(times[k]), dtype=float).reshape(-1)
        inputs[:, k] = u
        try:
            x = rk4_step(sys, x, u, times[k], dt)
        except DivergenceError as err:
            partial = Trajectory(times[: k + 1], states[:, : k + 1], inputs[:, :k])
            raise DivergenceError(str(err), partial=partial) from None
        states[:, k + 1] = x
    return Trajectory(times, states, inputs)


def reference_generate(sys, n_traj, box, t_end, dt, forcing_family, seed):
    """The one-``simulate``-per-trajectory loop of the batched generator."""
    box = np.asarray(box, dtype=float)
    trajectories, n_divergent = [], 0
    for i in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        x0 = box[:, 0] + rng.random(sys.state_dim) * (box[:, 1] - box[:, 0])
        forcing = forcing_family(rng)
        try:
            trajectories.append(reference_simulate(sys, x0, forcing, t_end, dt))
        except DivergenceError:
            n_divergent += 1
    if n_divergent:
        warnings.warn(f"dropped {n_divergent} divergent training trajectories", stacklevel=2)
    return trajectories, n_divergent


FORCING_KINDS = ("product-sines", "zero")


def random_signal(rng, kind):
    if kind == "product-sines":
        w = rng.normal(0.0, 10.0, size=2)
        return ForcingSignal.product_sines(rng.uniform(0.0, 5.0), w[0], w[1])
    return ZeroForcing()


def mixed_family(kinds):
    """A forcing family drawing each signal's kind, then its parameters, from the rng."""

    def make(rng):
        return random_signal(rng, kinds[int(rng.integers(len(kinds)))])

    return make


def recorded(fn, *args):
    """``fn(*args)`` and the text of every divergence warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


def same_trajectory(a, b):
    return (
        a.times.tobytes() == b.times.tobytes()
        and a.states.tobytes() == b.states.tobytes()
        and a.inputs.tobytes() == b.inputs.tobytes()
        and a.states.shape == b.states.shape
        and a.inputs.shape == b.inputs.shape
    )


class TestLockstepGeneration:
    @settings(max_examples=60, deadline=None)
    @given(
        plant=st.sampled_from(["vanderpol", "square", "sqrt"]),
        mu=st.floats(-1.0, 3.0),
        n_traj=st.integers(1, 40),
        lows=st.lists(st.floats(-6.0, 2.0), min_size=2, max_size=2),
        widths=st.lists(st.floats(0.01, 8.0), min_size=2, max_size=2),
        n_steps=st.integers(1, 25),
        dt=st.sampled_from([0.02, 0.05, 0.1]),
        kinds=st.lists(st.sampled_from(FORCING_KINDS), min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 2**128),
    )
    def test_equals_the_per_trajectory_loop_bitwise(
        self, plant, mu, n_traj, lows, widths, n_steps, dt, kinds, seed
    ):
        if plant == "vanderpol":
            sys = make_vanderpol(mu)
        else:
            sys = ControlSystem(1, 1, ONE_STATE_FIELDS[plant])
            lows, widths = lows[:1], widths[:1]
        box = [[lo, lo + w] for lo, w in zip(lows, widths)]
        args = (sys, n_traj, box, n_steps * dt, dt, mixed_family(kinds), seed)
        (got, n_got), got_warned = recorded(generate_training_trajectories, *args)
        (want, n_want), want_warned = recorded(reference_generate, *args)
        assert n_got == n_want and got_warned == want_warned
        assert got.n_paths == len(want) == n_traj - n_want
        assert all(same_trajectory(a, b) for a, b in zip(paths(got), want))

    @pytest.mark.parametrize("plant, box", [("square", [[0.0, 2.0]]), ("sqrt", [[-1.0, 1.0]])])
    def test_some_columns_diverge_without_numpy_warnings(self, plant, box):
        sys = ControlSystem(1, 1, ONE_STATE_FIELDS[plant])
        args = (sys, 30, box, 2.0, 0.05, mixed_family(["zero"]), 3)
        with pytest.warns(UserWarning, match="dropped") as caught:
            trajectories, n_divergent = generate_training_trajectories(*args)
        assert 0 < n_divergent < 30 and trajectories.n_paths == 30 - n_divergent
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @settings(max_examples=40, deadline=None)
    @given(
        plant=st.sampled_from(sorted(ONE_STATE_FIELDS)),
        x0=st.floats(-1.0, 3.0),
        n_steps=st.integers(1, 40),
        kind=st.sampled_from(FORCING_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_simulate_equals_the_per_step_loop_with_its_divergence(
        self, plant, x0, n_steps, kind, seed
    ):
        sys = ControlSystem(1, 1, ONE_STATE_FIELDS[plant])
        forcing = random_signal(np.random.default_rng(seed), kind)
        try:
            with np.errstate(all="ignore"):  # the per-step loop warns on NaN and overflow
                want = reference_simulate(sys, [x0], forcing, n_steps * 0.1, 0.1)
        except DivergenceError as err:
            with pytest.raises(DivergenceError) as exc:
                simulate(sys, [x0], forcing, n_steps * 0.1, 0.1)
            assert str(exc.value) == str(err)
            assert same_trajectory(exc.value.partial, err.partial)
        else:
            assert same_trajectory(simulate(sys, [x0], forcing, n_steps * 0.1, 0.1), want)


class TestForcingOnTimeArrays:
    @settings(max_examples=80, deadline=None)
    @given(
        n_times=st.integers(0, 30),
        t_max=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_stacked_scalar_calls_bitwise(self, n_times, t_max, seed):
        rng = np.random.default_rng(seed)
        sig = random_signal(rng, "product-sines")
        # Sample times on a grid and at random.
        times = np.concatenate([np.arange(n_times) * 0.05, rng.uniform(0.0, t_max, n_times)])
        got = sig.evaluate(times)
        want = np.stack([sig.evaluate(t) for t in times], axis=1) if times.size else None
        assert got.shape == (1, times.size)
        if want is not None:
            assert got.tobytes() == want.tobytes()
        for t in (0.0, float(t_max), np.float64(t_max)):
            assert sig.evaluate(t).shape == (1,)

    def test_scalar_results_do_not_alias_the_signal(self):
        sig = ForcingSignal.product_sines(1.0, 2.0, 3.0)
        u = sig.evaluate(0.5)
        u[:] = 99.0
        assert not np.any(sig.evaluate(np.array([0.5, 0.7])) == 99.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, np.nan], [[0.0, 0.1]]])
    def test_rejects_non_finite_or_2d_times(self, t):
        with pytest.raises(InvalidInputError, match="t must be"):
            ForcingSignal.product_sines(1.0, 2.0, 3.0).evaluate(np.asarray(t, dtype=float))


class TestGenerationTypedErrors:
    SYS = make_vanderpol(0.2)
    BOX = [[-1.0, 1.0], [-1.0, 1.0]]

    def gen(self, n_traj=3, box=None, t_end=0.5, dt=0.05, seed=0):
        return generate_training_trajectories(
            self.SYS, n_traj, self.BOX if box is None else box, t_end, dt,
            product_sines_family(), seed,
        )

    @pytest.mark.parametrize("n_traj", [2.5, "3", None, 0, -1])
    def test_n_traj_must_be_a_positive_integer(self, n_traj):
        with pytest.raises(InvalidInputError, match="n_traj"):
            self.gen(n_traj=n_traj)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            self.gen(seed=seed)

    def test_numpy_integers_are_accepted(self):
        trajectories, _ = self.gen(n_traj=np.int64(2), seed=np.uint32(7))
        assert trajectories.n_paths == 2
        assert same_trajectory(trajectories, self.gen(n_traj=2, seed=7)[0])

    @pytest.mark.parametrize(
        "box",
        [
            [[np.nan, 1.0], [-1.0, 1.0]],
            [[-1.0, np.inf], [-1.0, 1.0]],
            [[1.0, -1.0], [-1.0, 1.0]],
            [[-1.0, 1.0], [0.5, 0.5]],
            [[np.inf, np.inf], [-1.0, 1.0]],
            [[-1e308, 1e308], [-1.0, 1.0]],
        ],
    )
    def test_box_must_be_finite_and_ordered(self, box):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="box must be finite with low < high"):
                self.gen(box=box)

    @pytest.mark.parametrize("t_end", [0.01, 0.049])
    def test_t_end_must_cover_one_step(self, t_end):
        with pytest.raises(InvalidInputError, match="t_end must cover at least one step"):
            self.gen(t_end=t_end)


class TestForcingRows:
    """A forcing gives one input row per plant input; a short one is not broadcast."""

    TWO_INPUTS = ControlSystem(2, 2, ZeroRhs())
    BOX = [[-1.0, 1.0], [-1.0, 1.0]]

    def test_generation_rejects_a_one_row_forcing_of_a_two_input_plant(self):
        with pytest.raises(InvalidInputError, match=r"shape \(1, 10\) at 10 times.* plant's 2"):
            generate_training_trajectories(self.TWO_INPUTS, 3, self.BOX, 0.5, 0.05, product_sines_family(), 0)

    def test_simulate_rejects_a_one_row_forcing_of_a_two_input_plant(self):
        with pytest.raises(InvalidInputError, match=r"shape \(1, 10\) at 10 times.* plant's 2"):
            simulate(self.TWO_INPUTS, [0.0, 0.0], ForcingSignal.product_sines(1.0, 2.0, 3.0), 0.5, 0.05)

    def test_a_two_row_forcing_of_a_one_input_plant_is_rejected_too(self):
        with pytest.raises(InvalidInputError, match=r"shape \(2, 10\) at 10 times.* plant's 1"):
            simulate(make_vanderpol(0.2), [0.0, 0.0], ZeroForcing(2), 0.5, 0.05)

    def test_one_row_per_input_runs(self):
        batch, _ = generate_training_trajectories(
            self.TWO_INPUTS, 3, self.BOX, 0.5, 0.05, lambda rng: ZeroForcing(2), 0
        )
        assert batch.inputs.shape == (2, 3, 10)


MIXED_DRAWS = st.lists(st.sampled_from(["random", "normal", "integers", "uniform"]), min_size=1, max_size=6)


def draw_all(rng, kinds):
    """The bytes of one draw of each kind in ``kinds``, in order."""
    out = []
    for kind in kinds:
        if kind == "random":
            buf = np.empty(3)
            rng.random(out=buf)
        elif kind == "normal":
            buf = rng.normal(0.0, 10.0, size=2)
        elif kind == "integers":
            buf = np.concatenate([rng.integers(0, 7, size=3), rng.integers(-5, 2**40, size=2)])
        else:
            buf = rng.uniform(-1.0, 3.0, size=2)
        out.append(buf.tobytes())
    return out


class TestIndexStreams:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3]) | st.integers(0, 2**200),
        n=st.sampled_from([0, 1, 2, 64]),
        kinds=MIXED_DRAWS,
    )
    def test_each_stream_draws_what_its_own_seed_sequence_draws(self, seed, n, kinds):
        got = [draw_all(rng, kinds) for rng in _index_streams(seed, n)]
        want = [draw_all(np.random.default_rng(np.random.SeedSequence([seed, k])), kinds) for k in range(n)]
        assert got == want

    def test_the_generator_is_reused(self):
        streams = _index_streams(5, 3)
        first = next(streams)
        assert all(rng is first for rng in streams)

    def test_more_streams_than_one_word_indexes_are_rejected(self):
        with pytest.raises(InvalidInputError, match="at most 2\\*\\*32 streams"):
            next(_index_streams(0, 2**32))


class TestSampleSetTimestep:
    """The sample spacing a fit is given for its training set."""

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_rejects_a_bad_dt(self, dt):
        with pytest.raises(InvalidInputError, match="dt must be positive and finite"):
            fit_dmdc(one_step_paths(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((1, 3))), dt)
