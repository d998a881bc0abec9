"""Receding-horizon quadratic control on lifted linear models.

The finite-horizon problem is condensed onto the stacked input sequence:
predicted lifted states are eliminated by substitution, the stage cost acts
on the recovered state (so the QP size scales with the horizon and the input
dimension, not with the lifted dimension), and input and input-rate bounds
become box and inequality rows of one small QP per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .dynamics import Trajectory, _count, _n_steps, check_positive, rk4_step
from .errors import DivergenceError, InfeasibleError, InvalidInputError
from .numerics import FactoredQp, QpProblem, _constraint_rows, solve_qp_info, verify_active_set
from .sysid import rollout_from_lifted


def _weight_matrix(w, dim, name):
    arr = np.asarray(w, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(dim)
    if arr.shape != (dim, dim):
        raise InvalidInputError(f"{name} must be scalar or ({dim}, {dim})")
    return arr


def _bound_vector(v, dim):
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size not in (1, dim):
        raise InvalidInputError(f"bound has {arr.size} entries; expected 1 or {dim}")
    return np.broadcast_to(arr, dim).copy()


@dataclass
class MpcConfig:
    """Quadratic weights, horizon, bounds, and reference of the tracking QP.

    ``terminal_weight`` defaults to the stage weight ``q``. Bounds may be
    scalars or per-input vectors; rate bounds constrain u_k - u_{k-1} with
    the first difference taken against the previously applied input. An
    infinite bound means unbounded; NaN anywhere, or a non-finite weight or
    reference, raises InvalidInputError.
    """

    q: np.ndarray
    ru: float = 0.0
    rdu: float = 0.0
    horizon: int = 1
    u_min: float = -np.inf
    u_max: float = np.inf
    du_min: float = -np.inf
    du_max: float = np.inf
    reference: np.ndarray = None
    terminal_weight: np.ndarray | None = None

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        if self.q.ndim != 2 or self.q.shape[0] != self.q.shape[1]:
            raise InvalidInputError("q must be a square matrix")
        for name in ("q", "ru", "rdu"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise InvalidInputError(f"{name} must be finite")
        if np.min(np.linalg.eigvalsh(0.5 * (self.q + self.q.T))) < -1e-8:
            raise InvalidInputError("q must be positive semidefinite")
        self.horizon = _count(self.horizon, "horizon", 1)
        self.reference = (
            np.zeros(self.q.shape[0])
            if self.reference is None
            else np.asarray(self.reference, dtype=float).reshape(-1)
        )
        if self.reference.size != self.q.shape[0]:
            raise InvalidInputError("reference length must match q")
        if not np.all(np.isfinite(self.reference)):
            raise InvalidInputError("reference must be finite")
        for lo_name, hi_name in (("u_min", "u_max"), ("du_min", "du_max")):
            lo = np.asarray(getattr(self, lo_name), dtype=float).reshape(-1)
            hi = np.asarray(getattr(self, hi_name), dtype=float).reshape(-1)
            if lo.size != hi.size and 1 not in (lo.size, hi.size):
                raise InvalidInputError(
                    f"{lo_name} has {lo.size} entries but {hi_name} has {hi.size}"
                )
            if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
                raise InvalidInputError(f"{lo_name} and {hi_name} must not be NaN")
            if np.any(lo > hi):
                raise InvalidInputError("lower bounds must not exceed upper bounds")
        if self.terminal_weight is not None:
            self.terminal_weight = np.asarray(self.terminal_weight, dtype=float)
            if self.terminal_weight.shape != self.q.shape:
                raise InvalidInputError("terminal_weight must match q in shape")
            if not np.all(np.isfinite(self.terminal_weight)):
                raise InvalidInputError("terminal_weight must be finite")


class CondensedMpc:
    """Horizon condensation of one model/config pair.

    Everything that does not depend on the current lifted state or the
    previous input (Hessian, prediction maps, constraint rows) is built once;
    the stacked box and rate rows serve both :meth:`is_feasible` and the QP
    solver. The Hessian must be positive definite. Its inverse, from one
    Cholesky factorization, is kept too, so a step whose unconstrained
    minimizer ``-H^{-1} g`` satisfies every bound is solved by a matvec
    (Bemporad et al. 2002, explicit LQR); the solver's rows are mapped
    through the inverse of the same factor.
    """

    def __init__(self, model, cfg):
        a, b, c = model.a, model.b, model.c
        dim = a.shape[0]
        q_in = b.shape[1]
        ny = c.shape[0]
        q, ref = cfg.q, cfg.reference
        qf = q if cfg.terminal_weight is None else cfg.terminal_weight
        if q.shape[0] != ny:
            coords = list(model.lifting.coords)
            if q.shape[0] != model.lifting.state_dim or len(coords) != ny:
                raise InvalidInputError(
                    f"state weight is {q.shape[0]}-dimensional but the model recovers {ny} states"
                )
            # A partial-state model is weighted on the plant coordinates it recovers.
            rows = np.ix_(coords, coords)
            q, qf, ref = q[rows], qf[rows], ref[coords]
        n = cfg.horizon
        ru = _weight_matrix(cfg.ru, q_in, "ru")
        rdu = _weight_matrix(cfg.rdu, q_in, "rdu")

        a_pows = [np.eye(dim)]
        for _ in range(n):
            a_pows.append(a @ a_pows[-1])
        ca = c @ np.stack(a_pows)  # (n+1, ny, dim) blocks c a^k
        pred = ca[1:].reshape(n * ny, dim)
        # Block-lower-Toeplitz S: block (k, j) is c a^(k-j) b, zero (index n) above the diagonal.
        cab = np.concatenate([ca[:n] @ b, np.zeros((1, ny, q_in))])
        toe = np.subtract.outer(np.arange(n), np.arange(n))
        smat = cab[np.where(toe >= 0, toe, n)].transpose(0, 2, 1, 3).reshape(n * ny, n * q_in)

        qbar = np.zeros((n, ny, n, ny))
        qbar[np.arange(n), :, np.arange(n)] = [q] * (n - 1) + [qf]  # block diagonal
        qbar = qbar.reshape(n * ny, n * ny)
        # np.kron(np.eye(n), w) as one broadcast product, signed zeros included.
        eye = np.eye(n)[:, None, :, None]
        rubar, rdubar = ((eye * w[:, None, :]).reshape(n * q_in, -1) for w in (ru, rdu))
        lmat = np.eye(n * q_in) - np.eye(n * q_in, k=-q_in)
        emat = np.eye(n * q_in, q_in)

        half = smat.T @ qbar @ smat + rubar + lmat.T @ rdubar @ lmat
        self.h = half + half.T  # = 2 * half, exactly symmetric
        # H^{-1} from one Cholesky factorization, through LAPACK directly: a
        # matvec per step is far cheaper than a triangular solve.
        chol, info = scipy.linalg.lapack.dpotrf(self.h)
        if info or not np.isfinite(chol).all():
            raise InvalidInputError(
                "the horizon QP's Hessian is not positive definite (or not finite); make "
                "input_weight (ru) or input_rate_weight (rdu) positive"
            )
        self._h_inv = scipy.linalg.lapack.dpotrs(chol, np.eye(n * q_in))[0]
        u_inv = scipy.linalg.lapack.dtrtri(chol)[0]
        self.g_state = 2.0 * smat.T @ qbar @ pred
        self.g_const = -2.0 * smat.T @ qbar @ np.tile(ref, n)
        self.g_uprev = -2.0 * lmat.T @ rdubar @ emat
        self.lb = np.tile(_bound_vector(cfg.u_min, q_in), n)
        self.ub = np.tile(_bound_vector(cfg.u_max, q_in), n)
        du_max = np.tile(_bound_vector(cfg.du_max, q_in), n)
        du_min = np.tile(_bound_vector(cfg.du_min, q_in), n)
        # Rate rows u_k - u_{k-1} <= du_max and -(u_k - u_{k-1}) <= -du_min,
        # kept only where the bound is finite.
        keep = np.isfinite(np.concatenate([du_max, -du_min]))
        self.a_ineq = np.vstack([lmat, -lmat])[keep] if keep.any() else None
        self._rate_bound = np.concatenate([du_max, -du_min])[keep]
        self._rate_shift = np.vstack([emat, -emat])[keep]
        # Rate rows first: only their right-hand sides move with u_prev.
        self._rows, self._rhs = _constraint_rows(self.a_ineq, self._rate_bound, self.lb, self.ub)
        # Each stacked row as (family, plan entry), families in the order
        # _constraint_rows stacks them: rate up, rate down, box up, box down.
        # _row_shift maps a row to its family's row one horizon step earlier,
        # or to -1 for a row on the first step.
        masks = np.isfinite([du_max, du_min, self.ub, self.lb])
        family, entry = np.nonzero(masks)
        row_of = np.full(masks.shape, -1)
        row_of[family, entry] = np.arange(family.size)
        self._row_shift = np.where(entry >= q_in, row_of[family, entry - q_in], -1)
        # The solver's form of the step QP, on the same factor.
        self._qp = FactoredQp(self.h, None, self._rows, self._rhs, u_inv, self._rows @ u_inv)
        self._du0_hi = du_max[:q_in] + 1e-7
        self._du0_lo = du_min[:q_in] - 1e-7
        self.ru = ru
        self.rdu = rdu
        self.model = model
        self.cfg = cfg
        self.horizon = n
        self.input_dim = q_in

    def _gradient(self, z0, u_prev):
        """The step's QP gradient; ``u_prev`` must be a float vector already."""
        z0 = np.asarray(z0, dtype=float).reshape(-1)
        if z0.size != self.model.a.shape[0]:
            raise InvalidInputError("lifted state length does not match the model")
        if u_prev.size != self.input_dim:
            raise InvalidInputError("u_prev length does not match the model input")
        if not (np.isfinite(z0).all() and np.isfinite(u_prev).all()):
            raise InvalidInputError("lifted state or previous input is not finite")
        return self.g_state @ z0 + self.g_const + self.g_uprev @ u_prev

    def qp(self, z0, u_prev):
        u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
        g = self._gradient(z0, u_prev)
        b_ineq = None if self.a_ineq is None else self._step_rhs(u_prev)[: self._rate_bound.size]
        return QpProblem(
            h=self.h, g=g, a_ineq=self.a_ineq, b_ineq=b_ineq, lb=self.lb, ub=self.ub
        )

    def _step_rhs(self, u_prev):
        rhs = self._rhs.copy()
        rhs[: self._rate_bound.size] += self._rate_shift @ u_prev
        return rhs

    def factored_qp(self, g, u_prev):
        """The step's QP for gradient ``g`` in the solver's form; no input is checked."""
        return self._qp._replace(g=g, rhs=self._step_rhs(u_prev))

    def shift_active(self, active):
        """Rows ``active`` one horizon step earlier, in order; first-step rows drop out."""
        return tuple(int(r) for r in self._row_shift[list(active)] if r >= 0)

    def is_feasible(self, u_seq, u_prev, tol=1e-9):
        """Whether a stacked plan meets every box and rate row to within ``tol``.

        One product with the stacked rows; a non-finite plan meets the box
        entry by entry instead, as a zero row coefficient makes infinity NaN.
        """
        u_seq = np.asarray(u_seq, dtype=float).reshape(-1)
        u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
        if u_seq.size != self._rows.shape[1] or u_prev.size != self.input_dim:
            raise InvalidInputError("plan or u_prev length does not match the controller")
        rhs = self._step_rhs(u_prev) + tol
        if np.isfinite(u_seq).all():
            return bool((self._rows @ u_seq <= rhs).all())
        r = self._rate_bound.size
        box = (self.lb - tol <= u_seq).all() and (u_seq <= self.ub + tol).all()
        return bool(box and (self._rows[:r] @ u_seq <= rhs[:r]).all())


@dataclass
class MpcStep:
    """Outcome of one receding-horizon solve.

    A step whose unconstrained minimizer satisfies every bound reports
    ``qp_iterations == 0``, that minimizer's finite stationarity residual
    ``||H u + g||_inf`` as ``kkt_residual``, and no ``active_set``. Any other
    step reports the KKT residual and the active rows (indices into the
    condensed QP's stacked rows) of its plan: a verified guess
    (``guess_hit``) with 0 iterations, or else the dual active-set solve with
    its iterations. ``predicted_states`` is computed from the model on first
    access.
    """

    u: np.ndarray                 # applied input (first element of the plan)
    input_sequence: np.ndarray    # (q, N) planned inputs
    qp_iterations: int
    kkt_residual: float
    lifted_state: np.ndarray      # lifted measurement the plan starts from
    model: object = field(repr=False, compare=False)
    active_set: tuple | None = None  # active rows of the plan; None on the unconstrained law
    guess_hit: bool = False          # the plan came from a verified guess

    @cached_property
    def predicted_states(self):
        """(ny, N+1) recovered states along the plan."""
        return rollout_from_lifted(self.model, self.lifted_state, self.input_sequence)


def mpc_step(
    model,
    x_measured,
    u_prev,
    cfg,
    history_states=None,
    history_inputs=None,
    qp_tol=1e-8,
    active_guess=None,
    _condensed=None,
):
    """Solve the horizon problem from a fresh measurement and return the plan.

    The measurement is lifted through the model (consuming history for delay
    kinds); the model's own predictions are never fed back in. The returned
    ``u`` is the first element of the optimized sequence, clipped to the
    input box to remove solver-tolerance dust.

    The unconstrained minimizer is taken when it meets every stacked box and
    rate row and its stationarity residual is within ``qp_tol``. Otherwise,
    if ``active_guess`` (active rows of an earlier plan, say the previous
    step's) is given, that set and then the same set shifted one horizon step
    earlier are each checked with one KKT solve, and the first whose plan is
    optimal within ``qp_tol`` is taken. A guess is only verified, never
    iterated from. Failing that, the condensed QP, on the same rows, goes to
    the dual active-set solver, which starts from the unconstrained minimizer.

    Raises:
        InvalidInputError: the lifted measurement or ``u_prev`` is not
            finite, or ``qp_tol`` is not positive and finite.
        InfeasibleError: the bounds admit no plan, or the first planned
            input change breaks the rate bound by more than 1e-7.
        ConvergenceError: the solver's plan misses the KKT tolerance.
    """
    check_positive(qp_tol, "qp_tol")
    cond = CondensedMpc(model, cfg) if _condensed is None else _condensed
    u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
    z0 = model.lift(x_measured, history_states=history_states, history_inputs=history_inputs)
    g = cond._gradient(z0, u_prev)
    sol = -(cond._h_inv @ g)
    iterations, residual, active, hit = 0, np.inf, None, None
    if cond.is_feasible(sol, u_prev, 0.0):
        residual = float(np.abs(cond.h @ sol + g).max())
    if residual > qp_tol:
        qp = cond.factored_qp(g, u_prev)
        if active_guess is not None:
            active = active_guess
            hit = verify_active_set(qp, active, qp_tol)
            if hit is None:
                active = cond.shift_active(active_guess)
                hit = verify_active_set(qp, active, qp_tol)
        if hit is not None:
            sol, residual = hit
        else:
            sol, info = solve_qp_info(qp, tol=qp_tol)
            iterations, residual, active = info["iterations"], info["kkt_residual"], info.get("active")
    q_in = cond.input_dim
    u_seq = sol.reshape(cond.horizon, q_in).T.clip(cond.lb[:q_in, None], cond.ub[:q_in, None])
    du0 = u_seq[:, 0] - u_prev
    if (du0 > cond._du0_hi).any() or (du0 < cond._du0_lo).any():
        raise InfeasibleError(f"first planned input change {du0} breaks the rate bound")
    return MpcStep(
        u=u_seq[:, 0].copy(),
        input_sequence=u_seq,
        qp_iterations=iterations,
        kkt_residual=residual,
        lifted_state=z0,
        active_set=active,
        guess_hit=hit is not None,
        model=model,
    )


@dataclass
class ClosedLoopResult:
    """True-plant trajectory under receding-horizon control, with bookkeeping."""

    trajectory: Trajectory
    stage_costs: np.ndarray
    cumulative_cost: np.ndarray
    solve_stats: dict
    warmup_steps: int = 0

    @property
    def total_cost(self):
        return float(self.cumulative_cost[-1]) if self.cumulative_cost.size else 0.0

    @property
    def final_state(self):
        return self.trajectory.states[:, -1]


def _stage_cost(cond, x, u, u_prev):
    err = x - cond.cfg.reference
    du = u - u_prev
    return float(err @ cond.cfg.q @ err + u @ cond.ru @ u + du @ cond.rdu @ du)


def closed_loop_run(plant, model, cfg, x0, t_end, dt, qp_tol=1e-8):
    """Drive the true plant with receding-horizon control on the model.

    At every step the true state is measured, lifted, and a fresh horizon
    problem is solved; the first planned input is applied to the plant for
    one integrator step. Stage
    costs are evaluated on the true state with the applied input. Delay
    models idle with u = 0 while the measurement history fills. A step that
    leaves the unconstrained law first checks the active rows of the last
    such step's plan as a guess (see :func:`mpc_step`).

    ``solve_stats`` holds per-step ``iterations``, ``kkt_residual`` and
    ``guess_hit`` arrays. A step solved by the unconstrained law or by a
    verified guess has 0 iterations and a finite residual; a delay warm-up
    step, which solves nothing, has 0 iterations and a NaN residual.
    """
    n_steps = _n_steps(t_end, dt)
    check_positive(qp_tol, "qp_tol")
    if not abs(dt - model.dt) <= 1e-12 * max(1.0, abs(model.dt)):  # a NaN model.dt fails
        raise InvalidInputError(f"dt {dt} does not match the model timestep {model.dt}")
    if n_steps < 1:
        raise InvalidInputError("t_end must cover at least one step")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != plant.state_dim or not np.isfinite(x).all():
        raise InvalidInputError("x0 must be finite and match the plant's state dimension")
    q_in = model.input_dim
    warmup = model.lifting.history_steps
    cond = CondensedMpc(model, cfg)
    states = np.empty((plant.state_dim, n_steps + 1))
    inputs = np.empty((q_in, n_steps))
    stage = np.empty(n_steps)
    iters = np.zeros(n_steps, dtype=int)
    resid = np.full(n_steps, np.nan)
    hits = np.zeros(n_steps, dtype=bool)
    guess = None  # active rows of the last step that left the unconstrained law
    states[:, 0] = x
    u_prev = np.zeros(q_in)
    times = np.arange(n_steps + 1) * dt

    def partial(k):
        traj = Trajectory(times[: k + 1], states[:, : k + 1], inputs[:, :k])
        return ClosedLoopResult(
            trajectory=traj,
            stage_costs=stage[:k].copy(),
            cumulative_cost=np.cumsum(stage[:k]),
            solve_stats={
                "iterations": iters[:k].copy(),
                "kkt_residual": resid[:k].copy(),
                "guess_hit": hits[:k].copy(),
            },
            warmup_steps=warmup,
        )

    u_idle = np.clip(np.zeros(q_in), cond.lb[:q_in], cond.ub[:q_in])
    for k in range(n_steps):
        if k < warmup:
            u = u_idle.copy()
        else:
            try:
                step = mpc_step(
                    model,
                    x,
                    u_prev,
                    cfg,
                    history_states=states[:, :k],
                    history_inputs=inputs[:, :k],
                    qp_tol=qp_tol,
                    active_guess=guess,
                    _condensed=cond,
                )
            except InfeasibleError as err:
                raise InfeasibleError(f"horizon problem infeasible at step {k}: {err}") from None
            u = step.u
            iters[k] = step.qp_iterations
            resid[k] = step.kkt_residual
            hits[k] = step.guess_hit
            if step.active_set is not None:
                guess = step.active_set
        inputs[:, k] = u
        stage[k] = _stage_cost(cond, x, u, u_prev)
        try:
            x = rk4_step(plant, x, u, times[k], dt)
        except DivergenceError as err:
            raise DivergenceError(str(err), partial=partial(k)) from None
        states[:, k + 1] = x
        u_prev = u

    return partial(n_steps)
