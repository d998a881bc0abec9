import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmpc import (
    DelayCoordinates,
    Dictionary,
    InsufficientDataError,
    InvalidInputError,
    Trajectory,
    UnsupportedDictionaryError,
    eval_dictionary,
    identity_dictionary,
    monomials_dictionary,
    recovery_matrix,
)
from koopmpc.errors import MissingHistoryError
from koopmpc.io import model_from_json, model_to_json, read_json, write_json
from koopmpc.observables import eval_gradients
from conftest import model_on, reference_lift


def make_series(values, q=1):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    k = values.shape[1] - 1
    return Trajectory(times=np.arange(k + 1) * 1.0, states=values, inputs=np.zeros((q, k)))


class TestMonomials:
    def test_order_one_is_the_state(self):
        dic = monomials_dictionary(2, 1)
        assert dic.labels == ("x1", "x2")
        assert dic.n_out == 2

    @pytest.mark.parametrize("n, max_order", [(2, 2.5), (2.0, 2), (0, 2), (2, 0)])
    def test_sizes_must_be_positive_integers(self, n, max_order):
        with pytest.raises(InvalidInputError, match="must be an integer >= 1"):
            monomials_dictionary(n, max_order)

    def test_order_five_size(self):
        assert monomials_dictionary(2, 5).n_out == 20  # C(7,2) - 1

    def test_size_formula(self):
        for n in (1, 2, 3):
            for order in range(1, 6):
                expected = math.comb(n + order, n) - 1
                assert monomials_dictionary(n, order).n_out == expected

    def test_gradient_of_square(self):
        dic = monomials_dictionary(2, 2)
        i = dic.labels.index("x1^2")
        grad = eval_gradients(dic, np.array([3.0, 1.0]))[i]
        assert np.allclose(grad, [6.0, 0.0])

    def test_graded_lex_ordering(self):
        dic = monomials_dictionary(2, 3)
        assert dic.labels == (
            "x1", "x2", "x1^2", "x1*x2", "x2^2", "x1^3", "x1^2*x2", "x1*x2^2", "x2^3",
        )


class TestExponentMatrix:
    def test_exponents_are_read_only(self):
        dic = monomials_dictionary(2, 2)
        with pytest.raises(ValueError):
            dic.exponents[0, 0] = 3

    @pytest.mark.parametrize(
        "exponents",
        [
            [[1, 0], [1.5, 0]],  # non-integer
            [[1, 0], [-1, 0]],  # negative
            [[1, 0, 0], [0, 1, 0]],  # wrong row length
            [[1, 0], [0]],  # ragged
            [],  # no observable
            [["1", "0"]],  # not numbers
        ],
    )
    def test_malformed_exponents_rejected(self, exponents):
        with pytest.raises(InvalidInputError):
            Dictionary(2, exponents)


@st.composite
def exponent_matrices(draw):
    """(d, n) exponents with n in 1..3, total degree <= 5, optionally a constant row."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(lambda r: 0 < sum(r) <= 5)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    if draw(st.booleans()):
        rows.append([0] * n)
    return np.array(rows)


def _reference_monomials(e, x):
    """Per-row, per-column np.prod(x ** e): the loop the vectorized form replaces."""
    return np.array([[np.prod(x[:, k] ** row) for k in range(x.shape[1])] for row in e])


def _reference_gradients(e, x):
    out = np.zeros((e.shape[0], e.shape[1], x.shape[1]))
    for i, row in enumerate(e):
        for j, ej in enumerate(row):
            if ej:
                reduced = row.copy()
                reduced[j] -= 1
                out[i, j] = ej * _reference_monomials(reduced[None, :], x)[0]
    return out


class TestEvalAgainstPerRowReference:
    @given(e=exponent_matrices(), m=st.integers(1, 6), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_values_and_gradients(self, e, m, data):
        n = e.shape[1]
        x = data.draw(arrays(float, (n, m), elements=st.floats(-3.0, 3.0)))
        dic = Dictionary(n, e)
        rel = 1e-15
        ref = _reference_monomials(e, x)
        assert np.all(np.abs(eval_dictionary(dic, x) - ref) <= rel * np.abs(ref))
        assert np.all(np.abs(eval_dictionary(dic, x[:, 0]) - ref[:, 0]) <= rel * np.abs(ref[:, 0]))
        gref = _reference_gradients(e, x)
        assert np.all(np.abs(eval_gradients(dic, x) - gref) <= rel * np.abs(gref))
        single = eval_gradients(dic, x[:, 0])
        assert np.all(np.abs(single - gref[:, :, 0]) <= rel * np.abs(gref[:, :, 0]))


class TestEvalDictionary:
    def test_identity(self):
        dic = identity_dictionary(3)
        x = np.random.default_rng(0).standard_normal((3, 7))
        assert np.array_equal(eval_dictionary(dic, x), x)

    def test_order_two_at_point(self):
        dic = monomials_dictionary(2, 2)
        out = eval_dictionary(dic, np.array([2.0, 3.0]))
        assert np.allclose(out, [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_empty_batch(self):
        dic = monomials_dictionary(2, 2)
        out = eval_dictionary(dic, np.zeros((2, 0)))
        assert out.shape == (5, 0)

    def test_overflow_is_rejected(self):
        from koopmpc import InvalidInputError

        dic = monomials_dictionary(1, 5)
        with pytest.raises(InvalidInputError):
            eval_dictionary(dic, np.array([[1e300]]))

    def test_gradients_match_central_differences(self):
        h = 1e-5
        rng = np.random.default_rng(2024)
        for n, order in ((1, 4), (2, 3), (3, 2)):
            dic = monomials_dictionary(n, order)
            pts = rng.uniform(-6.0, 6.0, size=(n, 100))
            analytic = eval_gradients(dic, pts)  # (d, n, 100)
            for j in range(n):
                shift = np.zeros((n, 1))
                shift[j] = h
                fd = (eval_dictionary(dic, pts + shift) - eval_dictionary(dic, pts - shift)) / (2 * h)
                err = np.abs(fd - analytic[:, j, :])
                assert np.all(err <= 1e-6 * (1.0 + np.abs(analytic[:, j, :])))


class TestRecoveryMatrix:
    def test_identity_dictionary(self):
        assert np.array_equal(recovery_matrix(identity_dictionary(2)), np.eye(2))

    def test_order_five_selector(self):
        c = recovery_matrix(monomials_dictionary(2, 5))
        assert c.shape == (2, 20)
        assert np.array_equal(c, np.hstack([np.eye(2), np.zeros((2, 18))]))

    def test_exact_selection_on_random_states(self):
        dic = monomials_dictionary(2, 5)
        c = recovery_matrix(dic)
        x = np.random.default_rng(1).uniform(-6, 6, size=(2, 100))
        assert np.max(np.abs(c @ eval_dictionary(dic, x) - x)) < 1e-14

    def test_rejects_dictionary_without_leading_state(self):
        dic = Dictionary(2, monomials_dictionary(2, 2).exponents[[2, 3, 4]])  # quadratic terms only
        with pytest.raises(UnsupportedDictionaryError):
            recovery_matrix(dic)


def delay_columns(traj, depth):
    """``lift_windows`` of a full-state delay lifting over the one window ``traj``."""
    lifting = DelayCoordinates(
        depth, tuple(range(traj.state_dim)), state_dim=traj.state_dim, input_dim=traj.input_dim
    )
    return lifting.lift_windows(traj.states[:, :-1], traj.inputs)


def assert_shifts_by_one(z, traj, depth):
    """Column k+1 is column k advanced one step: a new sample on top, the rest pushed down."""
    n, h = traj.state_dim, depth - 1
    assert np.array_equal(z[:n, 1:], traj.states[:, h + 1 : traj.n_steps])
    assert np.array_equal(z[n : depth * n, 1:], z[: (depth - 1) * n, :-1])


class TestDelayEmbed:
    def test_depth_one_reduces_to_snapshots(self):
        traj = make_series([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        z = delay_columns(traj, 1)
        assert np.array_equal(z, traj.states[:, :-1])  # depth 1 stores no past inputs
        assert_shifts_by_one(z, traj, 1)

    def test_hand_stacked_hankel(self):
        traj = make_series([1.0, 2.0, 3.0, 4.0])
        z = delay_columns(traj, 2)
        assert np.array_equal(z, [[2.0, 3.0], [1.0, 2.0], [0.0, 0.0]])
        assert_shifts_by_one(z, traj, 2)

    def test_windows_need_an_input_per_step(self):
        lifting = DelayCoordinates(3, (0,), state_dim=1, input_dim=1)
        states = np.arange(12.0).reshape(1, 2, 6)
        assert lifting.lift_windows(states, np.ones((1, 2, 5))).shape == (lifting.aug_dim, 2, 4)
        with pytest.raises(MissingHistoryError, match="need 5 inputs"):
            lifting.lift_windows(states, np.ones((1, 2, 4)))

    def test_windows_without_inputs_miss_history(self):
        lifting = DelayCoordinates(3, (0, 1), state_dim=2, input_dim=1)
        with pytest.raises(MissingHistoryError, match="need 4 inputs"):
            lifting.lift_windows(np.ones((2, 5)), None)

    def test_window_state_rows_must_match_the_state_dim(self):
        lifting = DelayCoordinates(3, (0, 1), state_dim=2, input_dim=1)
        with pytest.raises(InvalidInputError, match="2 rows"):
            lifting.lift_windows(np.ones((3, 5)), np.ones((1, 4)))

    def test_window_input_rows_must_match_the_input_dim(self):
        lifting = DelayCoordinates(3, (0, 1), state_dim=2, input_dim=1)
        with pytest.raises(InvalidInputError, match="1 rows"):
            lifting.lift_windows(np.ones((2, 5)), np.ones((2, 4)))

    @pytest.mark.parametrize("coords", [(0, 7), (), (-1,), (0.0,), (True,), 0])
    def test_coords_must_index_the_state(self, coords):
        with pytest.raises(InvalidInputError, match="coords"):
            DelayCoordinates(1, coords, state_dim=2, input_dim=1)

    @pytest.mark.parametrize("depth", [2.5, 2.0, True, 0, -2])
    def test_depth_must_be_an_integer_of_at_least_one(self, depth):
        with pytest.raises(InvalidInputError, match="depth must be an integer >= 1"):
            DelayCoordinates(depth, (0,), state_dim=2, input_dim=1)

    @pytest.mark.parametrize("d1, d2", [(2.5, 3), (3, 2.0), (True, 1), (0, 1), (1, -2)])
    def test_depths_must_be_integers_of_at_least_one(self, d1, d2, tmp_path):
        # A model file stores the one depth twice, as d1 and d2; each is checked under its own name.
        lifting = DelayCoordinates(2, (0,), state_dim=2, input_dim=1)
        path = tmp_path / "model.json"
        model_to_json(model_on(lifting, lifting.aug_dim), path)
        raw = read_json(path)
        raw["lifting"].update(d1=d1, d2=d2)
        write_json(raw, path)
        bad = "d2" if type(d1) is int and d1 >= 1 else "d1"
        with pytest.raises(InvalidInputError, match=f"{bad} must be an integer >= 1"):
            model_from_json(path)

    @pytest.mark.parametrize(
        "dims, message",
        [
            ({"state_dim": "2"}, "state_dim must be an integer >= 1, got '2'"),
            ({"state_dim": 0}, "state_dim must be an integer >= 1"),
            ({"state_dim": 2.0}, "state_dim must be an integer >= 1"),
            ({"input_dim": "x"}, "input_dim must be an integer >= 0, got 'x'"),
            ({"input_dim": -1}, "input_dim must be an integer >= 0"),
            ({"input_dim": 1.0}, "input_dim must be an integer >= 0"),
        ],
    )
    def test_dims_must_be_integers(self, dims, message):
        with pytest.raises(InvalidInputError, match=message):
            DelayCoordinates(2, (0,), **{"state_dim": 2, "input_dim": 1, **dims})

    def test_numpy_integers_are_plain_ints_and_inputs_may_be_absent(self):
        lifting = DelayCoordinates(np.int64(2), (0,), state_dim=np.int32(2), input_dim=0)
        assert (lifting.depth, lifting.state_dim, lifting.input_dim) == (2, 2, 0)
        assert all(type(v) is int for v in (lifting.depth, lifting.state_dim))
        z = lifting.lift_windows(np.arange(8.0).reshape(2, 4), np.ones((0, 3)))
        assert np.array_equal(z, [[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]])

    def test_too_short_raises(self):
        traj = make_series([1.0, 2.0])  # two states = depth-2 needs three
        with pytest.raises(InsufficientDataError, match="too short for depth 2"):
            delay_columns(traj, 2)

    def test_unstack_recovers_series(self):
        rng = np.random.default_rng(8)
        series = rng.standard_normal((1, 12))
        traj = make_series(series)
        depth = 4
        z = delay_columns(traj, depth)
        rebuilt = np.concatenate([z[depth - 1 :: -1, 0], z[0, 1:]])
        assert np.array_equal(rebuilt, series[0, : traj.n_steps])

    def test_input_stacking_newest_first(self):
        states = np.arange(6.0)[None, :]
        inputs = (10.0 + np.arange(5.0))[None, :]
        traj = Trajectory(times=np.arange(6.0), states=states, inputs=inputs)
        z = delay_columns(traj, 3)
        # first usable index k = 2: the fit regresses on [z_2; u_2] with z_2 = [x2, x1, x0, u1, u0]
        assert np.array_equal(np.concatenate([inputs[:, 2], z[3:, 0]]), [12.0, 11.0, 10.0])
        assert np.array_equal(z[:3, 0], [2.0, 1.0, 0.0])
        assert np.array_equal(z[:3, 1], [3.0, 2.0, 1.0])


class TestLiftingInterface:
    def test_dictionary_needs_no_history(self):
        dic = monomials_dictionary(2, 2)
        assert dic.history_steps == 0
        assert dic.coords == (0, 1)
        x = np.array([2.0, 3.0])
        window = dic.lift_windows(x[:, None])
        assert np.array_equal(dic.lift_windows(x[:, None], np.ones((1, 3))), window)
        model = model_on(dic, dic.n_out)
        assert np.array_equal(model.lift(x, np.ones((2, 3)), np.ones((1, 3))), window[:, 0])
        assert np.array_equal(model.lift(x), reference_lift(dic, x))

    @given(
        depth=st.integers(1, 4),
        coords=st.sampled_from([(0,), (1,), (0, 1), (1, 0)]),
        extra=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_delay_window_columns_and_model_lift_match_the_reference(self, depth, coords, extra, data):
        lifting = DelayCoordinates(depth, coords, state_dim=2, input_dim=1)
        model = model_on(lifting, lifting.aug_dim)
        h = lifting.history_steps
        n_steps = h + extra
        states = data.draw(arrays(float, (2, n_steps + 1), elements=st.floats(-5.0, 5.0)))
        inputs = data.draw(arrays(float, (1, n_steps), elements=st.floats(-5.0, 5.0)))
        z = lifting.lift_windows(states[:, :-1], inputs)
        assert z.shape == (lifting.aug_dim, n_steps - h)
        for k in range(n_steps - h):
            history = dict(history_states=states[:, : k + h], history_inputs=inputs[:, : k + h])
            expected = reference_lift(lifting, states[:, k + h], **history)
            assert np.array_equal(z[:, k], expected)
            assert np.array_equal(model.lift(states[:, k + h], **history), expected)

    @pytest.mark.parametrize(
        "lifting",
        [
            monomials_dictionary(2, 3),
            DelayCoordinates(3, (0, 1), state_dim=2, input_dim=1),
            DelayCoordinates(4, (0,), state_dim=2, input_dim=1),
        ],
        ids=["dictionary", "delay", "delay-x1"],
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_on_buffer_slices_is_bitwise_lift_windows(self, lifting, data):
        # A closed loop checks its (n, T) buffers once, then lifts the window
        # ending at each column k through lift_checked on buffer slices.
        h = lifting.history_steps
        n_steps = data.draw(st.integers(h + 1, h + 8))
        values = st.floats(-1e3, 1e3, allow_subnormal=False)
        states = data.draw(arrays(float, (2, n_steps + 1), elements=values))
        inputs = data.draw(arrays(float, (1, n_steps), elements=values))
        lifting.check_windows(states, inputs)
        model = model_on(lifting, getattr(lifting, "aug_dim", None) or lifting.n_out)
        for k in range(h, n_steps + 1):
            got = lifting.lift_checked(states[:, k - h : k + 1], inputs[:, k - h : k])[:, 0]
            window = np.array(states[:, k - h : k + 1]), np.array(inputs[:, k - h : k])
            assert got.tobytes() == lifting.lift_windows(*window)[:, 0].tobytes()
            lifted = model.lift(states[:, k], states[:, :k], inputs[:, :k])
            assert got.tobytes() == lifted.tobytes()

    def test_kernel_raises_on_an_overflowing_lift(self):
        dic = monomials_dictionary(2, 3)
        with pytest.raises(InvalidInputError, match="non-finite"):
            dic.lift_checked(np.array([[1e120], [0.0]]))

    def test_delay_lift_without_inputs_needs_no_past_inputs(self):
        lifting = DelayCoordinates(3, (0, 1), state_dim=2, input_dim=0)
        model = model_on(lifting, lifting.aug_dim, input_dim=0)
        x, past = np.array([5.0, 6.0]), np.array([[1.0, 3.0], [2.0, 4.0]])
        hand_stacked = [5.0, 6.0, 3.0, 4.0, 1.0, 2.0]  # x_k, x_{k-1}, x_{k-2}
        assert np.array_equal(model.lift(x, past), hand_stacked)
        assert np.array_equal(model.lift(x, past, np.empty((0, 2))), hand_stacked)
        window = np.column_stack([past, x])
        assert np.array_equal(lifting.lift_windows(window, None)[:, 0], hand_stacked)

    @pytest.mark.parametrize("state_dim, input_dim", [(3, 1), (3, 3), (2, 4), (1, 3)])
    def test_model_lift_needs_history_steps_past_states(self, state_dim, input_dim):
        for depth in (2, 3, 4):
            lifting = DelayCoordinates(depth, tuple(range(state_dim)), state_dim, input_dim)
            model, h = model_on(lifting, lifting.aug_dim, input_dim), lifting.history_steps
            x, inputs = np.ones(state_dim), np.ones((input_dim, h))
            assert model.lift(x, np.ones((state_dim, h)), inputs).shape == (lifting.aug_dim,)
            for past in (None, np.ones((state_dim, h - 1))):
                with pytest.raises(MissingHistoryError, match=f"need {h} past states"):
                    model.lift(x, past, inputs)

    @pytest.mark.parametrize("depth", [2, 4])
    def test_model_lift_needs_history_steps_past_inputs_when_it_stores_inputs(self, depth):
        lifting = DelayCoordinates(depth, (0,), state_dim=2, input_dim=1)
        model, h = model_on(lifting, lifting.aug_dim), lifting.history_steps
        x, past = np.ones(2), np.ones((2, h))
        for inputs in (np.ones((1, h - 1)), None):
            with pytest.raises(MissingHistoryError, match="inputs"):
                model.lift(x, past, inputs)

    @pytest.mark.parametrize(
        "lifting",
        [
            DelayCoordinates(3, (0, 1), state_dim=2, input_dim=1),
            DelayCoordinates(1, (0, 1), state_dim=2, input_dim=1),
            monomials_dictionary(2, 2),
        ],
        ids=["delay", "delay-depth-1", "dictionary"],
    )
    def test_model_lift_needs_state_dim_entries(self, lifting):
        h = lifting.history_steps
        model = model_on(lifting, getattr(lifting, "aug_dim", None) or lifting.n_out)
        with pytest.raises(InvalidInputError, match="x has 3 entries, not 2"):
            model.lift(np.ones(3), np.ones((2, h)), np.ones((1, h)))

    @pytest.mark.parametrize("input_dim", [1, 3])
    def test_model_lift_needs_no_inputs_when_it_stores_none(self, input_dim):
        lifting = DelayCoordinates(1, (0, 1), state_dim=2, input_dim=input_dim)
        model, h = model_on(lifting, lifting.aug_dim, input_dim), lifting.history_steps
        x, past = np.array([1.0, 2.0]), np.arange(2.0 * h).reshape(2, h)
        expected = reference_lift(lifting, x, past)
        assert np.array_equal(model.lift(x, past), expected)
        assert np.array_equal(model.lift(x, past, np.ones((input_dim, 0))), expected)
