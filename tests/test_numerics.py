import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmpc import (
    ConvergenceError,
    InfeasibleError,
    InvalidInputError,
    QpProblem,
    lstsq_min_norm,
    stationary_vector,
    truncated_svd,
)
from koopmpc.numerics import (
    FactoredQp,
    _constraint_rows,
    _dual_active_set,
    _kkt_factor,
    _kkt_solve,
    solve_qp_info,
    verify_active_set,
)
from qp_reference import _ratio_test, primal_solve_qp_info


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
        # A period-2 class gets its stationary vector, the average of its orbit.
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

    def test_slow_leak_ends_outside(self):
        # Second eigenvalue 1 - 3e-6: a power iteration needs millions of steps.
        p = slow_leak_chain()
        assert np.sort(np.abs(np.linalg.eigvals(p)))[-2] >= 0.9999
        start = np.append(np.ones(10), 0.0)
        assert np.max(np.abs(stationary_vector(p, start=start) - np.eye(11)[10])) <= 1e-12

    def test_gamblers_ruin_absorbs_at_the_exact_odds(self):
        n = 10
        p = gamblers_ruin(n)
        for i in range(n + 1):
            pi = stationary_vector(p, start=np.eye(n + 1)[i])
            assert abs(pi[n] - i / n) <= 1e-14
            assert abs(pi[0] - (n - i) / n) <= 1e-14
            assert np.all(pi[1:n] == 0.0)

    def test_periodic_class_fed_by_a_transient_state_gets_the_cesaro_average(self):
        # State 0 stays w.p. 1/4, feeds the period-2 class {1, 2} w.p. 1/2 and
        # the absorbing state 3 w.p. 1/4, so the class absorbs 2/3 of it.
        p = np.array([
            [0.25, 0.0, 0.0, 0.0],
            [0.5, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.25, 0.0, 0.0, 1.0],
        ])
        start = np.eye(4)[0]
        pi = stationary_vector(p, start=start)
        assert np.max(np.abs(pi - [0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])) <= 1e-14
        x, cesaro = start.copy(), np.zeros(4)
        for _ in range(20_000):
            cesaro += x
            x = p @ x
        assert np.max(np.abs(pi - cesaro / 20_000)) <= 1e-4


def slow_leak_chain():
    """``(1 - a) I + a P`` with ``a = 2**-11`` on 10 boxes and an absorbing state 10.

    ``P`` moves each box one step around a 10-cycle; box 0 leaks 1/16 of its
    mass to state 10 instead. Every entry is dyadic, so the columns sum to
    exactly 1 in floating point and the ones vector is exactly conserved.
    """
    cycle = np.zeros((11, 11))
    cycle[(np.arange(10) + 1) % 10, np.arange(10)] = 1.0
    cycle[1, 0], cycle[10, 0], cycle[10, 10] = 15.0 / 16.0, 1.0 / 16.0, 1.0
    a = 2.0**-11
    return (1.0 - a) * np.eye(11) + a * cycle


def gamblers_ruin(n):
    """Fair walk on 0..n with absorbing ends: from i, absorbed at n w.p. i / n."""
    p = np.zeros((n + 1, n + 1))
    p[0, 0] = p[n, n] = 1.0
    for i in range(1, n):
        p[i - 1, i] = p[i + 1, i] = 0.5
    return p


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


@settings(deadline=None)
@given(p=sparse_stochastic())
@example(p=slow_leak_chain())
def test_stationary_vector_is_the_fixed_point_that_conserves_the_start(p):
    # Eigenvalue-1 projection, checked without iterating: a fixed point, with
    # every conserved quantity (left null vector of p - I) equal to the start's.
    start = np.ones(p.shape[0])
    start[-1] = 0.0  # no initial mass on the absorbing outside state
    pi = stationary_vector(p, start=start)
    assert np.abs(p @ pi - pi).sum() <= 1e-12
    w = scipy.linalg.null_space(p.T - np.eye(p.shape[0]))
    assert np.max(np.abs(w.T @ (pi - start / start.sum()))) <= 1e-12


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
        x, _ = solve_qp_info(QpProblem(h=np.eye(2), g=np.array([-1.0, -2.0])))
        assert np.allclose(x, [1.0, 2.0], atol=1e-10)

    def test_active_box_clamp(self):
        x, _ = solve_qp_info(QpProblem(h=np.eye(2), g=np.array([-1.0, -2.0]), ub=[0.5, 0.5]))
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
            x, _ = solve_qp_info(qp)
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
        x, _ = solve_qp_info(qp)

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
            solve_qp_info(qp)

    @pytest.mark.parametrize(
        "qp, max_iter, active",
        [
            # Both upper bounds are violated at the start; the budget ends
            # after the first of them was added.
            (QpProblem(h=np.eye(2), g=np.array([-10.0, -10.0]), ub=[1.0, 1.0]), 1, [0]),
            # The first row added (the second rate row) is dropped again by
            # a partial step, which ends the budget with no active row.
            (
                QpProblem(
                    h=np.array([[6.0, -1.0], [-1.0, 2.0]]), g=np.array([-3.0, -8.0]),
                    a_ineq=np.array([[-2.0, -2.0], [-2.0, 2.0]]), b_ineq=np.array([1.0, 2.0]),
                    lb=[-1.0, -1.0], ub=[1.0, 1.0],
                ),
                2,
                [],
            ),
        ],
        ids=["row-added", "row-dropped"],
    )
    def test_budget_exhausted_raises_convergence_error(self, qp, max_iter, active):
        factored = FactoredQp.factor(qp.h, qp.g, *_constraint_rows(qp.a_ineq, qp.b_ineq, qp.lb, qp.ub))
        assert _dual_active_set(factored, 1e-8, max_iter) == (active, max_iter, False)
        with pytest.raises(ConvergenceError) as exc:
            solve_qp_info(qp, max_iter=max_iter)
        assert np.isfinite(exc.value.residual)
        assert exc.value.best.shape == (2,)
        x, _ = solve_qp_info(qp)  # the full budget solves it
        np.testing.assert_allclose(x, primal_solve_qp_info(qp)[0], rtol=0.0, atol=1e-12)

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


def enumerated_qp_optimum(h, g, rows, rhs):
    """Optimum of ``min 0.5 x'hx + g'x`` s.t. ``rows x <= rhs`` by active-set enumeration.

    Tries every set of linearly independent rows as equalities and returns
    the KKT point that is feasible with nonnegative multipliers, or None when
    no set gives one (the rows admit no point).
    """
    n, m = h.shape[0], rows.shape[0]
    for size in range(min(n, m) + 1):
        for subset in itertools.combinations(range(m), size):
            aw = rows[list(subset)]
            if np.linalg.matrix_rank(aw) < size:
                continue
            kkt = np.block([[h, aw.T], [aw, np.zeros((size, size))]])
            sol = np.linalg.solve(kkt, np.concatenate([-g, rhs[list(subset)]]))
            x, lam = sol[:n], sol[n:]
            if np.all(rows @ x <= rhs + 1e-9) and np.all(lam >= -1e-9):
                return x
    return None


@st.composite
def small_qp(draw):
    """A strictly convex QP with n <= 4 and at most 8 integer rows.

    Some rows pass through one common vertex (possibly more than n of them),
    one row may be repeated, and the unconstrained minimizer lies a few units
    beyond that vertex, so degenerate optima are common.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 7))
    ints = st.integers(-2, 2).map(float)
    f = draw(arrays(float, (n, n), elements=ints))
    h = f @ f.T + np.eye(n)
    rows = draw(arrays(float, (m, n), elements=ints))
    vertex = draw(arrays(float, n, elements=ints))
    through = draw(st.integers(0, m))
    rhs = np.concatenate([rows[:through] @ vertex, draw(arrays(float, m - through, elements=ints))])
    if m and draw(st.booleans()):
        rows, rhs = np.vstack([rows, rows[:1]]), np.append(rhs, rhs[0])
    target = vertex + draw(arrays(float, n, elements=st.integers(-3, 3).map(float)))
    return h, -(h @ target), rows, rhs


@settings(max_examples=300, deadline=None)
@given(small_qp())
def test_dual_solver_matches_enumeration(case):
    h, g, rows, rhs = case
    qp = QpProblem(h=h, g=g, a_ineq=rows if rows.size else None, b_ineq=rhs if rows.size else None)
    ref = enumerated_qp_optimum(h, g, rows, rhs)
    if ref is None:
        with pytest.raises(InfeasibleError):
            solve_qp_info(qp)
        return
    x, info = solve_qp_info(qp)
    np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-9)
    assert info["kkt_residual"] <= 1e-8
    if info["iterations"]:
        with pytest.raises(ConvergenceError) as exc:
            solve_qp_info(qp, max_iter=info["iterations"] - 1)
        assert exc.value.best.shape == x.shape


class TestNonFiniteProblems:
    # Python's max(0.0, nan, 0.0) is 0.0: the residual must not drop a NaN term.
    def test_a_nan_gradient_gives_a_nan_residual(self):
        qp = FactoredQp.factor(np.eye(2), np.array([np.nan, 0.0]), np.zeros((0, 2)), np.zeros(0))
        x, residual = _kkt_solve(qp, [], qp.rows[[]], _kkt_factor(qp.h, qp.rows[[]]), 1e-8)
        assert np.isnan(x[0]) and np.isnan(residual)
        assert verify_active_set(qp, []) is None

    @pytest.mark.parametrize("rows", [0, 2, 4], ids=["no rows", "upper box", "box"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_gradient_is_rejected(self, rows, entry):
        # With rows, a NaN gradient makes NaN steps in the dual iteration, so it is rejected first.
        box = np.vstack([np.eye(2), -np.eye(2)])[:rows]
        qp = FactoredQp.factor(np.eye(2), np.array([entry, 0.0]), box, np.ones(rows))
        with pytest.raises(InvalidInputError, match="gradient or right-hand side is not finite"):
            solve_qp_info(qp)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_a_non_finite_right_hand_side_is_rejected(self, entry):
        qp = FactoredQp.factor(np.eye(2), np.array([-2.0, 0.0]), np.eye(2), np.array([1.0, entry]))
        with pytest.raises(InvalidInputError, match="gradient or right-hand side is not finite"):
            solve_qp_info(qp)


def test_rejects_hessian_without_cholesky_factor():
    with pytest.raises(InvalidInputError, match="positive definite"):
        solve_qp_info(QpProblem(h=np.diag([1.0, 0.0]), g=np.ones(2), ub=[1.0, 1.0]))


class TestVerifyActiveSet:
    @settings(max_examples=300, deadline=None)
    @given(small_qp(), st.data())
    def test_an_accepted_guess_is_the_dual_solvers_plan(self, case, data):
        h, g, rows, rhs = case
        guess = data.draw(st.lists(st.integers(0, rows.shape[0] - 1), unique=True)
                          if rows.size else st.just([]))
        qp = FactoredQp.factor(h, g, rows, rhs)
        hit = verify_active_set(qp, guess)
        if enumerated_qp_optimum(h, g, rows, rhs) is None:
            assert hit is None  # no point meets the rows, so no guess can
            return
        x, info = solve_qp_info(qp)
        if hit is not None:
            assert hit[1] <= 1e-8
            np.testing.assert_allclose(hit[0], x, rtol=0.0, atol=1e-12)
        # The solver's own final rows are verified, and give its plan bit for bit.
        own = verify_active_set(qp, info["active"])
        assert own is not None and np.array_equal(own[0], x)

    def test_a_negative_multiplier_is_rejected(self):
        # min |x|^2 / 2 is at 0, inside x0 <= 1: holding the row needs multiplier -1.
        qp = FactoredQp.factor(np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]), np.array([1.0]))
        assert verify_active_set(qp, [0]) is None
        x, residual = verify_active_set(qp, [])
        assert np.array_equal(x, [0.0, 0.0]) and residual == 0.0

    def test_the_solvers_refined_rows_verify_to_its_plan(self):
        # Multipliers in the thousands leave the first solve 1.25e-8 from the
        # optimum; the solver refines it, and so must the verification.
        h = np.array([[2.0, 2.0, 0.0, 0.0], [2.0, 6.0, 0.0, -1.0], [0.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 2.0]])
        rows = np.array([[-1.0, 2.0, 2.0, -2.0], [-1.0, 0.0, -2.0, 1.0], [2.0, -2.0, 1.0, 2.0],
                         [0.0, 0.0, 0.0, 0.0], [2.0, -2.0, -2.0, -2.0]])
        qp = FactoredQp.factor(h, np.array([2.0, 2.0, 0.0, 0.0]), rows, np.array([0.0, -1.0, 0.0, 0.0, -1.0]))
        x, info = solve_qp_info(qp)
        own = verify_active_set(qp, info["active"])
        assert own is not None and np.array_equal(own[0], x) and own[1] == info["kkt_residual"]

    def test_a_broken_row_is_rejected(self):
        # The unconstrained minimizer (2, 0) breaks x0 <= 1.
        qp = FactoredQp.factor(np.eye(2), np.array([-2.0, 0.0]), np.array([[1.0, 0.0]]), np.array([1.0]))
        assert verify_active_set(qp, []) is None
        x, _ = verify_active_set(qp, [0])
        assert np.array_equal(x, [1.0, 0.0])

    def test_a_repeated_row_makes_a_singular_system_and_is_rejected(self):
        rows, rhs = np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0])
        qp = FactoredQp.factor(np.eye(2), np.array([-2.0, 0.0]), rows, rhs)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.block([[np.eye(2), rows.T], [rows, np.zeros((2, 2))]]), np.ones(4))
        with pytest.raises(np.linalg.LinAlgError):  # dgetrf's zero pivot raises as that solve does
            _kkt_factor(np.eye(2), rows)
        assert verify_active_set(qp, [0, 1]) is None
        assert verify_active_set(qp, [1]) is not None
