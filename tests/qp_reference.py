"""Primal active-set QP solver: the reference the dual solver is tested against.

This is the package's earlier solver, kept here unchanged in behaviour: a
feasible start (an LP phase 1 when clipping to the box is not enough), one
KKT system per iteration, and a ratio test that blocks at the first
constraint hit. It accepts positive semidefinite ``h`` but can cycle at
degenerate vertices, where it ends in ``ConvergenceError``.
"""

import numpy as np
import scipy.optimize

from koopmpc.errors import ConvergenceError, InfeasibleError
from koopmpc.numerics import _constraint_rows


def _feasible_start(qp, x0):
    x = np.zeros(qp.n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1).copy()
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


def primal_solve_qp_info(qp, x0=None, tol=1e-8, max_iter=None):
    """Primal active-set solve of a ``QpProblem``: ``(x, {"iterations", "kkt_residual"})``."""
    rows, rhs = _constraint_rows(qp.a_ineq, qp.b_ineq, qp.lb, qp.ub)
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
