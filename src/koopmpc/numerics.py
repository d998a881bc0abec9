"""Dense linear-algebra and small-scale QP kernels.

The QP solver is Goldfarb and Idnani's dual active-set method, run in the
coordinates of the Hessian's Cholesky factor. Its plan comes from one
equality-constrained KKT solve on the final active rows, split into an LU
factorization and a solve on that factor, so a caller that meets one set
of rows often can keep the factor and run only the solve. Every routine is
a pure function of its arguments (no caches, no globals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .dynamics import check_positive
from .errors import ConvergenceError, InfeasibleError, InvalidInputError

DEFAULT_SVD_TOL = 1e-10


def _as_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 2-D array, got shape {np.shape(m)}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _as_vector(v, name="vector"):
    a = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``m = u @ diag(s) @ vt`` plus a rank at a relative threshold.

    ``u``, ``s``, ``vt`` are the full thin factors; ``rank`` counts the
    singular values above ``tol * s[0]`` and tells consumers where to cut.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int


def truncated_svd(m, tol=DEFAULT_SVD_TOL):
    """Thin SVD with a relative truncation rank.

    Args:
        m: matrix to factor, shape (r, c).
        tol: relative singular-value threshold; ``rank`` counts values
            strictly above ``tol * s[0]``.
    """
    a = _as_matrix(m)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    top = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * top))
    return SvdFactors(u=u, s=s, vt=vt, rank=rank)


def lstsq_min_norm(a, b, tol=DEFAULT_SVD_TOL):
    """Solve ``min ||a x - b||_F``; among minimizers return the min-norm one.

    Rank decisions are made by ``truncated_svd`` at the relative threshold
    ``tol``. ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    a = _as_matrix(a, "a")
    b_arr = np.asarray(b, dtype=float)
    squeeze = b_arr.ndim == 1
    if squeeze:
        b_arr = b_arr[:, None]
    b_arr = _as_matrix(b_arr, "b")
    if a.shape[0] != b_arr.shape[0]:
        raise InvalidInputError(
            f"row mismatch: a has {a.shape[0]} rows, b has {b_arr.shape[0]}"
        )
    f = truncated_svd(a, tol)
    r = f.rank
    if r == 0:
        x = np.zeros((a.shape[1], b_arr.shape[1]))
    else:
        x = f.vt[:r].T @ ((f.u[:, :r].T @ b_arr) / f.s[:r, None])
    return x[:, 0] if squeeze else x


def stationary_vector(p, start=None):
    """Eigenvalue-1 spectral projection of ``start`` under a column-stochastic matrix.

    Solved, not iterated. A strongly connected class is closed when no entry
    of ``p`` leads out of it. One sparse solve ``(I - Q) y = start_T`` over
    the transient block ``Q`` gives the mass ``p[R, T] @ y`` each recurrent
    state absorbs. Each closed class ends with its stationary vector, scaled
    to the mass it holds; a periodic class gets the average over its period.

    Args:
        p: square column-stochastic matrix (columns sum to 1, entries >= 0),
            dense or ``scipy.sparse``; a sparse one is never densified.
        start: optional starting distribution; defaults to uniform. For
            reducible chains the result depends on the start.
    """
    sparse = scipy.sparse.csr_array(p if scipy.sparse.issparse(p) else _as_matrix(p, "p"), dtype=float, copy=True)
    n = sparse.shape[0]
    if sparse.ndim != 2 or sparse.shape[1] != n or n == 0:
        raise InvalidInputError(f"p must be square, got {sparse.shape}")
    sparse.sum_duplicates()
    if not np.all(np.isfinite(sparse.data)):
        raise InvalidInputError("p contains non-finite entries")
    if np.min(sparse.data, initial=0.0) < -1e-12:
        raise InvalidInputError("p has negative entries")
    col_err = np.max(np.abs(sparse.sum(axis=0) - 1.0))
    if col_err > 1e-10:
        raise InvalidInputError(f"p is not column-stochastic (column sum error {col_err:.2e})")
    if start is None:
        pi = np.full(n, 1.0 / n)
    else:
        pi = _as_vector(start, "start")
        if pi.size != n or np.min(pi) < -1e-12 or pi.sum() <= 0:
            raise InvalidInputError("start must be a nonnegative distribution of matching size")
        pi = np.maximum(pi, 0.0)
        pi = pi / pi.sum()
    np.maximum(sparse.data, 0.0, out=sparse.data)
    sparse.eliminate_zeros()
    _, labels = scipy.sparse.csgraph.connected_components(sparse, connection="strong")
    rows, cols = sparse.nonzero()  # p[i, j] moves mass from j to i
    rec = ~np.isin(labels, labels[cols[labels[rows] != labels[cols]]])  # states of closed classes
    q = sparse[~rec][:, ~rec]
    visits = scipy.sparse.linalg.spsolve((scipy.sparse.identity(q.shape[0]) - q).tocsc(), pi[~rec])
    mass = pi[rec] + sparse[rec][:, ~rec] @ visits
    # All classes in one solve: the recurrent block of p - I with one row per
    # class replaced by that class's ones, whose right-hand side is its mass.
    _, lead, cls = np.unique(labels[rec], return_index=True, return_inverse=True)
    k, row = mass.size, lead[cls]
    is_row = row == np.arange(k)
    m = scipy.sparse.diags(~is_row * 1.0) @ (sparse[rec][:, rec] - scipy.sparse.identity(k))
    m = m + scipy.sparse.csr_array((np.ones(k), (row, np.arange(k))), shape=(k, k))
    out = np.zeros(n)
    out[rec] = scipy.sparse.linalg.spsolve(m.tocsc(), is_row * np.bincount(cls, weights=mass)[cls])
    if not np.all(np.isfinite(out)):
        raise InvalidInputError("p gives a singular stationary solve")
    out = np.maximum(out, 0.0)
    return out / out.sum()


@dataclass
class QpProblem:
    """Convex QP ``min 0.5 x'hx + g'x`` s.t. ``a_ineq x <= b_ineq``, ``lb <= x <= ub``.

    ``a_ineq``/``b_ineq`` may be None for box-only problems; ``lb``/``ub``
    default to unbounded.
    """

    h: np.ndarray
    g: np.ndarray
    a_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.h = _as_matrix(self.h, "h")
        n = self.h.shape[0]
        if self.h.shape[1] != n:
            raise InvalidInputError("h must be square")
        scale = max(1.0, float(np.max(np.abs(self.h))))
        if np.max(np.abs(self.h - self.h.T)) > 1e-10 * scale:
            raise InvalidInputError("h must be symmetric within 1e-10")
        self.g = _as_vector(self.g, "g")
        if self.g.size != n:
            raise InvalidInputError("g length must match h")
        if (self.a_ineq is None) != (self.b_ineq is None):
            raise InvalidInputError("a_ineq and b_ineq must be given together")
        if self.a_ineq is not None:
            self.a_ineq = _as_matrix(self.a_ineq, "a_ineq")
            self.b_ineq = _as_vector(self.b_ineq, "b_ineq")
            if self.a_ineq.shape[1] != n or self.a_ineq.shape[0] != self.b_ineq.size:
                raise InvalidInputError("inequality dimensions are inconsistent")
        self.lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, float).reshape(-1)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, float).reshape(-1)
        if self.lb.size != n or self.ub.size != n:
            raise InvalidInputError("bound lengths must match h")
        if np.any(self.lb > self.ub):
            raise InvalidInputError("lb must be elementwise <= ub")

    @property
    def n(self):
        return self.h.shape[0]


def _constraint_rows(a_ineq, b_ineq, lb, ub):
    """Inequality rows, then finite upper and lower bounds, as ``rows x <= rhs``."""
    eye = np.eye(lb.size)
    up, lo = np.isfinite(ub), np.isfinite(lb)
    a = np.zeros((0, lb.size)) if a_ineq is None else a_ineq
    b = np.zeros(0) if b_ineq is None else b_ineq
    return np.vstack([a, eye[up], -eye[lo]]), np.concatenate([b, ub[up], -lb[lo]])


class FactoredQp(NamedTuple):
    """Strictly convex QP ``min 0.5 x'hx + g'x`` s.t. ``rows x <= rhs``, as the solver takes it.

    ``u_inv`` is the inverse of the Cholesky factor ``U`` of ``h = U'U`` and
    ``rows_u = rows @ u_inv`` are the rows in the coordinates ``y = U x``.
    A caller with many problems of one ``h`` and ``rows`` factors once and
    replaces ``g`` and ``rhs``. Nothing here is validated or copied.
    """

    h: np.ndarray
    g: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    u_inv: np.ndarray
    rows_u: np.ndarray

    @classmethod
    def factor(cls, h, g, rows, rhs):
        # LAPACK directly: scipy's checked wrappers cost several times more.
        u, info = scipy.linalg.lapack.dpotrf(h)
        if info:
            raise InvalidInputError("h must be positive definite")
        u_inv = scipy.linalg.lapack.dtrtri(u)[0]
        return cls(h, g, rows, rhs, u_inv, rows @ u_inv)

    @property
    def n(self):
        return self.h.shape[0]


def _dual_active_set(qp, tol, max_iter):
    """Goldfarb-Idnani iterations on a :class:`FactoredQp`: ``(active, iterations, converged)``.

    In ``y = U x`` the objective is ``0.5 |y - y0|^2`` plus a constant, with
    ``y0`` the unconstrained minimizer where the iteration starts. The active
    rows are factored as ``rows_u[active].T = qm[:, :q] @ rm[:q, :q]``.
    The most violated row ``p`` has its multiplier raised until ``p`` holds
    (a full step adds it) or an active multiplier reaches zero (a partial
    step drops that row and tries ``p`` again). A ``p`` that depends linearly
    on the active rows takes partial steps only, so degenerate vertices need
    no tie rule. An iteration is one row added or dropped.
    """
    y = -(qp.g @ qp.u_inv)
    qm, rm, lam = np.eye(qp.n), np.zeros((qp.n, qp.n)), np.zeros(qp.n)
    active, iterations = [], 0
    while qp.rhs.size:
        s = qp.rows_u @ y - qp.rhs
        s[active] = -np.inf
        p = int(s.argmax())
        violation = float(s[p])
        if violation <= 0.1 * tol:  # rows within a tenth of tol count as met
            break
        dp, lam_p = qp.rows_u[p], 0.0
        while True:
            if iterations == max_iter:
                return active, iterations, False
            iterations += 1
            q = len(active)
            d = dp @ qm
            d2 = d[q:]
            zz = float(d2 @ d2)
            r = scipy.linalg.blas.dtrsv(rm[:q, :q], d[:q]) if q else d[:0]
            # steps[0] makes p hold (none when p's part outside the active
            # rows' span is below 1e-12 of it); steps[1:] zero active multipliers.
            steps = np.full(q + 1, np.inf)
            if zz > 1e-24 * float(dp @ dp):
                steps[0] = violation / zz
            np.divide(lam[:q], r, out=steps[1:], where=r > 0.0)
            k = int(steps.argmin())
            t = float(steps[k])
            if t == np.inf:
                raise InfeasibleError("constraint set is empty")
            lam[:q] -= t * r
            lam_p += t
            if steps[0] < np.inf:
                q2 = qm[:, q:]
                y -= t * (q2 @ d2)
                violation -= t * zz
            if k == 0:
                # A Householder reflection of qm's free columns maps d2 onto
                # their first one, which extends the factorization by p.
                alpha = -math.copysign(math.sqrt(zz), d2[0])
                v = d2.copy()
                v[0] -= alpha
                q2 -= (q2 @ v)[:, None] * (v * (2.0 / float(v @ v)))
                rm[:q, q], rm[q, q], lam[q] = d[:q], alpha, lam_p
                active.append(p)
                break
            lam[k - 1 : q - 1] = lam[k:q]
            active.pop(k - 1)
            qm, rm[:, : q - 1] = scipy.linalg.qr_delete(qm, rm[:, :q], k - 1, which="col", check_finite=False)
            rm[:, q - 1] = 0.0
    return active, iterations, True


def _kkt_matrix(h, aw):
    """The KKT matrix ``[[h, aw'], [aw, 0]]`` of ``h`` with the rows ``aw`` as equalities."""
    n = h.shape[0]
    kkt = np.zeros((n + aw.shape[0],) * 2)
    kkt[:n, :n], kkt[:n, n:], kkt[n:, :n] = h, aw.T, aw
    return kkt


def _kkt_factor(h, aw):
    """LU factor ``(lu, piv)`` of :func:`_kkt_matrix`, by LAPACK ``dgetrf``.

    The solver's last step, :func:`verify_active_set` and a caller's stored
    factor all run this and :func:`_kkt_solve`, so they agree bit for bit.
    An exactly singular matrix raises ``np.linalg.LinAlgError``.
    """
    lu, piv, info = scipy.linalg.lapack.dgetrf(_kkt_matrix(h, aw))
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return lu, piv


def _kkt_solve(qp, active, factor, tol, refine_below=math.inf):
    """``x`` with the ``active`` rows (a list) as equalities, and its KKT residual.

    ``factor`` is the :func:`_kkt_factor` of ``qp.h`` and those rows, in the
    order given; ``dgetrs`` solves on it. The residual is the largest row
    violation, stationarity error or complementarity error, with negative
    multipliers clipped to zero; it is NaN if any of them is. A residual
    above ``tol`` and at most ``refine_below`` gets one step of iterative
    refinement: with a large ``g``, rounding in the active rows' slack is
    magnified by their multipliers.
    """
    n, aw, bw = qp.n, qp.rows[active], qp.rhs[active]
    rhs = np.concatenate([-qp.g, bw])

    def point(sol):
        x, lam = sol[:n], np.maximum(sol[n:], 0.0)
        stat = np.abs(qp.h @ x + qp.g + aw.T @ lam).max()
        comp = np.abs(lam * (bw - aw @ x)).max(initial=0.0)
        viol = (qp.rows @ x - qp.rhs).max(initial=0.0)
        # Python's max keeps a NaN only in first place; the sum of the three is NaN if one is.
        return x, math.nan if math.isnan(viol + stat + comp) else float(max(viol, stat, comp))

    sol = scipy.linalg.lapack.dgetrs(*factor, rhs)[0]
    x, residual = point(sol)
    if tol < residual <= refine_below:
        step = rhs - _kkt_matrix(qp.h, aw) @ sol
        x, residual = point(sol + scipy.linalg.lapack.dgetrs(*factor, step)[0])
    return x, residual


def _verify_on_factor(qp, active, factor, tol):
    """:func:`verify_active_set` on a given :func:`_kkt_factor` of ``active``'s KKT matrix."""
    x, residual = _kkt_solve(qp, list(active), factor, tol, refine_below=math.sqrt(tol))
    return (x, residual) if residual <= tol else None


def verify_active_set(qp, active, tol=1e-8):
    """``(x, residual)`` on a guessed active set if that is the optimum, else None.

    The :func:`_kkt_factor` and :func:`_kkt_solve` solve that
    :func:`solve_qp_info` ends with, on the ``active`` rows of a
    :class:`FactoredQp` as equalities. The guess is accepted only if the KKT
    residual is within ``tol``: every row met, multipliers nonnegative,
    stationary. ``h`` is positive definite, so an accepted ``x`` is the
    unique optimum. A miss of at most ``sqrt(tol)``, rounding that the
    multipliers magnified, gets the solver's refinement step, so the plan is
    the one :func:`solve_qp_info` would return were its final active rows
    the guess, bit for bit. A larger miss is a wrong guess, and it is
    rejected without a second solve. Rows that depend linearly on each other
    make the KKT system singular; an exactly singular factor returns None,
    and any other such guess passes only if its solve still meets ``tol``.
    """
    try:
        factor = _kkt_factor(qp.h, qp.rows[list(active)])
    except np.linalg.LinAlgError:
        return None
    return _verify_on_factor(qp, active, factor, tol)


def solve_qp_info(qp, tol=1e-8, max_iter=None):
    """Dual active-set solve of a :class:`QpProblem` or :class:`FactoredQp`: ``(x, info)``.

    Goldfarb & Idnani (1983), "A numerically stable dual method for solving
    strictly convex quadratic programs": start from the unconstrained
    minimizer, add violated rows, need no feasible point. ``x`` comes from one
    equality-constrained solve on the final active rows, and its KKT residual
    (feasibility, stationarity, complementarity) is at most ``tol``. ``info``
    holds the iterations, that residual, the final active rows (row indices
    into the stacked rows of :func:`_constraint_rows`, in ascending order) and
    ``kkt_factor``, the :func:`_kkt_factor` of those rows' KKT matrix, which a
    caller may keep to check the same rows again with :func:`_verify_on_factor`.
    As the rows are sorted before they are factored, the factor, ``x`` and
    the residual depend on the final set alone, not on the order in which
    the solver added its rows.

    Raises:
        InvalidInputError: ``h`` is not positive definite, ``g`` or the
            rows' right-hand side is not finite, or ``tol`` is not positive
            and finite.
        InfeasibleError: the constraints admit no point.
        ConvergenceError: ``max_iter`` rows added and dropped did not finish,
            or the residual exceeds ``tol``; carries that ``x`` as ``best``.
    """
    check_positive(tol, "tol")
    if isinstance(qp, QpProblem):
        qp = FactoredQp.factor(qp.h, qp.g, *_constraint_rows(qp.a_ineq, qp.b_ineq, qp.lb, qp.ub))
    elif not isinstance(qp, FactoredQp):
        raise InvalidInputError("qp must be a QpProblem or a FactoredQp")
    if not (np.isfinite(qp.g).all() and np.isfinite(qp.rhs).all()):
        raise InvalidInputError("the QP's gradient or right-hand side is not finite")
    if max_iter is None:
        max_iter = max(100, 10 * (qp.n + qp.rhs.size))
    active, iterations, converged = _dual_active_set(qp, tol, max_iter)
    active = sorted(active)  # the factor's rounding then depends on the set alone
    factor = _kkt_factor(qp.h, qp.rows[active])
    x, residual = _kkt_solve(qp, active, factor, tol)
    if not (converged and residual <= tol):  # a NaN residual fails
        raise ConvergenceError(
            f"dual active-set QP {'finished' if converged else 'stopped'} after {iterations} "
            f"iterations with KKT residual {residual:.2e} (tolerance {tol:.1e})",
            residual=residual,
            best=x,
        )
    return x, {"iterations": iterations, "kkt_residual": residual, "active": tuple(active), "kkt_factor": factor}
