import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmpc import (
    ConvergenceError,
    InfeasibleError,
    InvalidInputError,
    QpProblem,
    lstsq_min_norm,
    solve_qp,
    stationary_vector,
    truncated_svd,
)
from koopmpc.numerics import _ratio_test


class TestTruncatedSvd:
    def test_identity(self):
        f = truncated_svd(np.eye(3))
        assert np.allclose(f.s, 1.0)
        assert f.rank == 3

    def test_diagonal_rank(self):
        f = truncated_svd(np.array([[2.0, 0.0], [0.0, 0.0]]), tol=1e-12)
        assert np.allclose(f.s, [2.0, 0.0])
        assert f.rank == 1

    def test_singular_values_match_gram_eigenvalues(self):
        # Independent oracle: eigenvalues of m^T m from the symmetric solver.
        rng = np.random.default_rng(42)
        m = rng.standard_normal((5, 3))
        f = truncated_svd(m)
        gram_eigs = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        assert np.max(np.abs(f.s**2 - gram_eigs)) < 1e-8

    def test_round_trip_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for shape in [(4, 4), (30, 12), (12, 30), (200, 200)]:
            m = rng.standard_normal(shape)
            f = truncated_svd(m)
            err = np.linalg.norm(m - f.u @ np.diag(f.s) @ f.vt)
            assert err <= 1e-9 * np.linalg.norm(m)
            k = min(shape)
            assert np.max(np.abs(f.u.T @ f.u - np.eye(k))) < 1e-10
            assert np.max(np.abs(f.vt @ f.vt.T - np.eye(k))) < 1e-10
            assert np.all(np.diff(f.s) <= 0) and np.all(f.s >= 0)
            assert f.rank <= k

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            truncated_svd(np.array([[1.0, np.nan]]))


class TestLstsqMinNorm:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(lstsq_min_norm(np.eye(3), b), b)

    def test_generate_then_recover(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 2))
        x0 = rng.standard_normal((2, 3))
        x = lstsq_min_norm(a, a @ x0)
        assert np.linalg.norm(x - x0) < 1e-10

    def test_min_norm_on_solution_line(self):
        # x1 + x2 = 2 has the min-norm solution (1, 1).
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([[2.0], [2.0]])
        assert np.allclose(lstsq_min_norm(a, b), [[1.0], [1.0]], atol=1e-12)

    def test_residual_cannot_be_improved(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((10, 2))
        x = lstsq_min_norm(a, b)
        base = np.linalg.norm(a @ x - b)
        for _ in range(50):
            delta = rng.standard_normal(x.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert np.linalg.norm(a @ (x + delta) - b) >= base - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            lstsq_min_norm(np.eye(3), np.ones((4, 1)))


class TestStationaryVector:
    def test_identity_returns_start(self):
        pi = stationary_vector(np.eye(2), start=[1.0, 0.0])
        assert np.allclose(pi, [1.0, 0.0])

    def test_two_state_balance(self):
        pi = stationary_vector(np.array([[0.9, 0.2], [0.1, 0.8]]))
        assert np.max(np.abs(pi - [2.0 / 3.0, 1.0 / 3.0])) < 1e-9

    def test_permutation_chain_converges_under_damping(self):
        # The damped iteration averages the period-2 orbit away and lands on
        # the uniform fixed point in a finite number of steps.
        pi = stationary_vector(np.array([[0.0, 1.0], [1.0, 0.0]]), start=[1.0, 0.0])
        assert np.allclose(pi, [0.5, 0.5])

    def test_result_is_fixed_point(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            raw = rng.random((6, 6)) + 0.05
            p = raw / raw.sum(axis=0)
            pi = stationary_vector(p)
            assert np.abs(p @ pi - pi).sum() <= 1e-10
            assert np.all(pi >= 0) and abs(pi.sum() - 1) < 1e-12

    def test_rejects_non_stochastic(self):
        with pytest.raises(InvalidInputError):
            stationary_vector(np.array([[0.5, 0.2], [0.1, 0.8]]))
        with pytest.raises(InvalidInputError):
            stationary_vector(np.array([[1.2, 0.0], [-0.2, 1.0]]))

    def test_convergence_error_reports_residual(self):
        # A slowly mixing chain cannot reach 1e-10 in very few iterations.
        p = np.array([[0.999, 0.001], [0.001, 0.999]])
        with pytest.raises(ConvergenceError) as exc:
            stationary_vector(p, start=[1.0, 0.0], max_iter=3)
        assert exc.value.residual > 0
        assert exc.value.best is not None


@st.composite
def sparse_stochastic(draw, k=None, empty_columns=False):
    """A column-stochastic ``(k + 1, k + 1)`` matrix, mostly zeros.

    Each of the ``k`` box columns spreads over at most four destinations,
    the appended outside state among them; the outside state is absorbing.
    With ``empty_columns``, box columns may be all zero, as for boxes that
    held no sample.
    """
    if k is None:
        k = draw(st.integers(1, 12))
    p = np.zeros((k + 1, k + 1))
    for j in range(k):
        if empty_columns and draw(st.booleans()):
            continue
        dest = draw(st.lists(st.integers(0, k), min_size=1, max_size=4, unique=True))
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(dest), max_size=len(dest))))
        p[dest, j] = w / w.sum()
    p[k, k] = 1.0
    return p


def dense_stationary_reference(p, start, tol=1e-10, max_iter=100_000):
    """The damped power iteration on the dense matrix, as a plain loop."""
    pi = start / start.sum()
    for _ in range(max_iter):
        ap = p @ pi
        if np.abs(ap - pi).sum() <= tol:
            return pi
        pi = np.maximum(0.5 * (pi + ap), 0.0)
        pi = pi / pi.sum()
    raise AssertionError("reference iteration did not converge")


@settings(deadline=None)
@given(p=sparse_stochastic())
def test_stationary_vector_matches_dense_iteration(p):
    start = np.ones(p.shape[0])
    start[-1] = 0.0  # no initial mass on the absorbing outside state
    assert np.max(np.abs(stationary_vector(p, start=start) - dense_stationary_reference(p, start))) <= 1e-12


def brute_force_qp(qp, resolution=1e-3, span=1.5):
    """Exhaustive 2-variable grid search over the box (oracle)."""
    lo = np.where(np.isfinite(qp.lb), qp.lb, -span)
    hi = np.where(np.isfinite(qp.ub), qp.ub, span)
    xs = np.arange(lo[0], hi[0] + resolution / 2, resolution)
    ys = np.arange(lo[1], hi[1] + resolution / 2, resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    h, g = qp.h, qp.g
    obj = 0.5 * (h[0, 0] * gx**2 + 2 * h[0, 1] * gx * gy + h[1, 1] * gy**2)
    obj += g[0] * gx + g[1] * gy
    if qp.a_ineq is not None:
        feas = np.ones_like(obj, dtype=bool)
        for row, rhs in zip(qp.a_ineq, qp.b_ineq):
            feas &= row[0] * gx + row[1] * gy <= rhs + 1e-12
        obj = np.where(feas, obj, np.inf)
    k = np.argmin(obj)
    return np.array([gx.flat[k], gy.flat[k]])


class TestSolveQp:
    def test_unconstrained(self):
        x = solve_qp(QpProblem(h=np.eye(2), g=np.array([-1.0, -2.0])))
        assert np.allclose(x, [1.0, 2.0], atol=1e-10)

    def test_active_box_clamp(self):
        x = solve_qp(QpProblem(h=np.eye(2), g=np.array([-1.0, -2.0]), ub=[0.5, 0.5]))
        assert np.allclose(x, [0.5, 0.5], atol=1e-10)

    def test_matches_grid_search(self):
        # The grid argmin's location is only O(sqrt(resolution)) determined
        # along weakly curved or constraint-active directions, so the match
        # is checked on the minimum value, which the grid pins to first order.
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = rng.standard_normal((2, 2))
            h = m @ m.T + np.eye(2)
            g = rng.standard_normal(2)
            qp = QpProblem(
                h=h,
                g=g,
                a_ineq=rng.standard_normal((1, 2)),
                b_ineq=rng.random(1),
                lb=[-1.0, -1.0],
                ub=[1.0, 1.0],
            )
            x = solve_qp(qp)
            ref = brute_force_qp(qp)

            def obj(v):
                return 0.5 * v @ qp.h @ v + qp.g @ v

            assert np.all(qp.a_ineq @ x <= qp.b_ineq + 1e-9)
            assert np.all(x >= qp.lb - 1e-9) and np.all(x <= qp.ub + 1e-9)
            assert abs(obj(x) - obj(ref)) < 2e-3
            assert obj(ref) >= obj(x) - 1e-9  # the grid never beats the solver

    def test_beats_random_feasible_probes(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((2, 2))
        qp = QpProblem(
            h=m @ m.T + 0.3 * np.eye(2),
            g=rng.standard_normal(2),
            a_ineq=np.array([[1.0, 1.0]]),
            b_ineq=np.array([0.5]),
            lb=[-2.0, -2.0],
            ub=[2.0, 2.0],
        )
        x = solve_qp(qp)

        def obj(v):
            return 0.5 * v @ qp.h @ v + qp.g @ v

        count = 0
        while count < 1000:
            probe = rng.uniform(-2.0, 2.0, 2)
            if probe.sum() <= 0.5:
                assert obj(x) <= obj(probe) + 1e-9
                count += 1

    def test_infeasible(self):
        qp = QpProblem(
            h=np.eye(2),
            g=np.zeros(2),
            a_ineq=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            b_ineq=np.array([-1.0, -1.0]),  # x0 <= -1 and x0 >= 1
        )
        with pytest.raises(InfeasibleError):
            solve_qp(qp)

    @pytest.mark.parametrize(
        "qp, x0, max_iter",
        [
            # The last iteration adds the blocking row x0 <= 1 after the
            # multipliers of the empty working set were computed.
            (QpProblem(h=np.eye(2), g=np.array([-10.0, 0.0]), ub=[1.0, 1.0]), None, 1),
            # The last iteration drops a row whose multiplier came out negative.
            (
                QpProblem(
                    h=np.array([[3.0, 2.0], [2.0, 3.0]]), g=np.array([-2.0, 3.0]),
                    a_ineq=np.array([[1.0, -1.0], [1.0, 0.0]]), b_ineq=np.ones(2),
                    lb=[-1.0, -1.0], ub=[1.0, 1.0],
                ),
                [1.0, 1.0],
                3,
            ),
        ],
        ids=["row-added", "row-dropped"],
    )
    def test_budget_exhausted_raises_convergence_error(self, qp, x0, max_iter):
        with pytest.raises(ConvergenceError) as exc:
            solve_qp(qp, x0=x0, max_iter=max_iter)
        assert np.isfinite(exc.value.residual)
        assert exc.value.best.shape == (2,)

    def test_validates_symmetry_and_bounds(self):
        with pytest.raises(InvalidInputError):
            QpProblem(h=np.array([[1.0, 0.5], [0.0, 1.0]]), g=np.zeros(2))
        with pytest.raises(InvalidInputError):
            QpProblem(h=np.eye(2), g=np.zeros(2), lb=[1.0, 0.0], ub=[0.0, 0.0])


def loop_ratio_test(rows, rhs, x, p, working):
    """Row-by-row blocking test, the reference for the vectorized one."""
    alpha, blocking = 1.0, -1
    for i in range(rows.shape[0]):
        if i in working:
            continue
        d = float(rows[i] @ p)
        if d <= 1e-13:
            continue
        step = max(float(rhs[i] - rows[i] @ x), 0.0) / d
        if step < alpha:
            alpha, blocking = step, i
    return alpha, blocking


@st.composite
def ratio_test_inputs(draw):
    # Small integers keep every product and sum exact, so both versions do
    # the same arithmetic and ties (repeated rows) are common.
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 8))
    ints = st.integers(-3, 3).map(float)
    rows = draw(arrays(float, (m, n), elements=ints))
    rhs = draw(arrays(float, m, elements=ints))
    x = draw(arrays(float, n, elements=ints))
    p = draw(arrays(float, n, elements=ints))
    working = draw(st.lists(st.integers(0, m - 1), unique=True)) if m else []
    return rows, rhs, x, p, working


@given(ratio_test_inputs())
def test_ratio_test_matches_row_loop(inputs):
    assert _ratio_test(*inputs) == loop_ratio_test(*inputs)
