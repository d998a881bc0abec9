"""Dense linear-algebra and small-scale QP kernels.

Every routine is a pure function of its arguments (no caches, no globals),
so everything here is safe to call concurrently or from worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse

from .errors import ConvergenceError, InfeasibleError, InvalidInputError, UnknownLevelError

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


def level_index(levels, u, tol=1e-9):
    """Index of the discrete level within ``tol`` (max-norm) of input ``u``."""
    u = np.asarray(u, dtype=float).reshape(-1)
    for i, lv in enumerate(levels):
        if lv.size == u.size and np.max(np.abs(lv - u)) <= tol:
            return i
    raise UnknownLevelError(f"input {u} does not match any level")


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


def stationary_vector(p, start=None, tol=1e-10, max_iter=100_000):
    """Fixed point of a column-stochastic matrix via damped power iteration.

    Iterates ``pi <- 0.5 * (pi + p @ pi)``; the damping removes period-2
    oscillation without changing the fixed-point set. Convergence is judged
    on the undamped residual ``||p @ pi - pi||_1 <= tol``. The input is
    validated dense; the iteration runs on its compressed-sparse-row copy,
    since transition matrices over box partitions are nearly all zeros.

    Args:
        p: square column-stochastic matrix (columns sum to 1, entries >= 0).
        start: optional starting distribution; defaults to uniform. For
            reducible chains the limit depends on the start.
    """
    a = _as_matrix(p, "p")
    n = a.shape[0]
    if a.shape[1] != n:
        raise InvalidInputError(f"p must be square, got {a.shape}")
    if np.min(a) < -1e-12:
        raise InvalidInputError("p has negative entries")
    col_err = np.max(np.abs(a.sum(axis=0) - 1.0))
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
    sparse = scipy.sparse.csr_array(a)
    residual = np.inf
    for _ in range(max_iter):
        ap = sparse @ pi
        residual = float(np.abs(ap - pi).sum())
        if residual <= tol:
            return pi
        pi = 0.5 * (pi + ap)
        pi = np.maximum(pi, 0.0)
        pi = pi / pi.sum()
    raise ConvergenceError(
        f"power iteration did not reach residual {tol:.1e} in {max_iter} iterations "
        f"(last residual {residual:.2e})",
        residual=residual,
        best=pi,
    )


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


def _constraint_rows(qp):
    """Stack general inequalities and finite box bounds as rows g_i x <= h_i."""
    rows = []
    rhs = []
    if qp.a_ineq is not None:
        rows.append(qp.a_ineq)
        rhs.append(qp.b_ineq)
    n = qp.n
    eye = np.eye(n)
    ub_mask = np.isfinite(qp.ub)
    if np.any(ub_mask):
        rows.append(eye[ub_mask])
        rhs.append(qp.ub[ub_mask])
    lb_mask = np.isfinite(qp.lb)
    if np.any(lb_mask):
        rows.append(-eye[lb_mask])
        rhs.append(-qp.lb[lb_mask])
    if rows:
        return np.vstack(rows), np.concatenate(rhs)
    return np.zeros((0, n)), np.zeros(0)


def _feasible_start(qp, x0):
    x = np.zeros(qp.n) if x0 is None else _as_vector(x0, "x0").copy()
    if x.size != qp.n:
        raise InvalidInputError("x0 length must match h")
    x = np.clip(x, qp.lb, qp.ub)
    if qp.a_ineq is None or np.all(qp.a_ineq @ x <= qp.b_ineq + 1e-9):
        return x
    # Phase 1: any point of the polytope will do.
    bounds = [
        (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
        for lo, hi in zip(qp.lb, qp.ub)
    ]
    res = scipy.optimize.linprog(
        c=np.zeros(qp.n), A_ub=qp.a_ineq, b_ub=qp.b_ineq, bounds=bounds, method="highs"
    )
    if not res.success:
        raise InfeasibleError("constraint set is empty")
    return np.clip(res.x, qp.lb, qp.ub)


def _eqp_step(h, grad, gw):
    """Direction and multipliers of the equality-constrained subproblem."""
    n = h.shape[0]
    nw = gw.shape[0]
    if nw == 0:
        try:
            p = np.linalg.solve(h, -grad)
        except np.linalg.LinAlgError:
            p = np.linalg.lstsq(h, -grad, rcond=None)[0]
        return p, np.zeros(0)
    kkt = np.zeros((n + nw, n + nw))
    kkt[:n, :n] = h
    kkt[:n, n:] = gw.T
    kkt[n:, :n] = gw
    rhs = np.concatenate([-grad, np.zeros(nw)])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


def _kkt_residual(qp, x, rows, rhs, working, lam):
    grad = qp.h @ x + qp.g
    feas = float(np.max(rows @ x - rhs)) if rows.shape[0] else 0.0
    feas = max(feas, 0.0)
    lam_pos = np.maximum(lam, 0.0)
    stat = grad.copy()
    comp = 0.0
    if working:
        gw = rows[working]
        stat = stat + gw.T @ lam_pos
        comp = float(np.max(np.abs(lam_pos * (rhs[working] - gw @ x))))
    return max(feas, float(np.max(np.abs(stat))), comp)


def _ratio_test(rows, rhs, x, p, working):
    """Longest step (at most 1) from ``x`` along ``p``, and the row that blocks it.

    Rows in ``working`` and rows that ``p`` does not approach are skipped.
    The blocking row is the one with the smallest step below 1, the first
    such row on ties; it is -1 when no row blocks the full step.
    """
    d = rows @ p
    approach = d > 1e-13
    approach[working] = False
    if not np.any(approach):
        return 1.0, -1
    steps = np.full(d.size, np.inf)
    slack = np.maximum(rhs - rows @ x, 0.0)
    steps[approach] = slack[approach] / d[approach]
    i = int(np.argmin(steps))
    return (float(steps[i]), i) if steps[i] < 1.0 else (1.0, -1)


def solve_qp(qp, x0=None, tol=1e-8, max_iter=None):
    """Primal active-set solver for convex QPs with box and inequality rows.

    Returns an ``x`` whose KKT residual (feasibility, stationarity,
    complementarity) is at most ``tol``.

    Raises:
        InfeasibleError: the constraints admit no point.
        ConvergenceError: iteration budget exhausted; carries the best iterate.
    """
    x, info = solve_qp_info(qp, x0=x0, tol=tol, max_iter=max_iter)
    return x


def solve_qp_info(qp, x0=None, tol=1e-8, max_iter=None):
    """Like :func:`solve_qp` but also returns iteration/residual metadata."""
    if not isinstance(qp, QpProblem):
        raise InvalidInputError("qp must be a QpProblem")
    rows, rhs = _constraint_rows(qp)
    n_rows = rows.shape[0]
    if max_iter is None:
        max_iter = max(100, 10 * (qp.n + n_rows))
    x = _feasible_start(qp, x0)
    working: list[int] = []
    # ``lam`` holds the multipliers of the rows ``lam_rows``: the working set
    # as it was when ``lam`` was computed, before any row was added or dropped.
    lam_rows: list[int] = []
    lam = np.zeros(0)
    for it in range(max_iter):
        grad = qp.h @ x + qp.g
        gw = rows[working] if working else np.zeros((0, qp.n))
        p, lam = _eqp_step(qp.h, grad, gw)
        lam_rows = list(working)
        if np.max(np.abs(p)) <= 1e-12 * (1.0 + np.max(np.abs(x))):
            if lam.size == 0 or np.min(lam) >= -1e-9:
                residual = _kkt_residual(qp, x, rows, rhs, working, lam)
                if residual <= tol:
                    return x, {"iterations": it + 1, "kkt_residual": residual}
                raise ConvergenceError(
                    f"stalled with KKT residual {residual:.2e} > {tol:.1e}",
                    residual=residual,
                    best=x,
                )
            working.pop(int(np.argmin(lam)))
            continue
        alpha, blocking = _ratio_test(rows, rhs, x, p, working)
        x = x + alpha * p
        if blocking >= 0:
            working.append(blocking)
    residual = _kkt_residual(qp, x, rows, rhs, lam_rows, lam)
    raise ConvergenceError(
        f"active-set QP did not converge in {max_iter} iterations "
        f"(KKT residual {residual:.2e})",
        residual=residual,
        best=x,
    )
