"""Receding-horizon quadratic control on lifted linear models.

The finite-horizon problem is condensed onto the stacked input sequence:
predicted lifted states are eliminated by substitution, the stage cost acts
on the recovered state (so the QP size scales with the horizon and the input
dimension, not with the lifted dimension), and input and input-rate bounds
become box and inequality rows of one small QP per step.
"""

from __future__ import annotations

import math
import mmap
import numbers
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg

from .dynamics import Trajectory, _count, _n_steps, check_positive, rk4_step
from .errors import DivergenceError, InfeasibleError, InvalidInputError, KoopmpcError
from .numerics import FactoredQp, QpProblem, _constraint_rows, _verify_on_factor, solve_qp_info


@dataclass
class MpcConfig:
    """Quadratic weights, horizon, bounds, and reference of the tracking QP.

    ``q`` weighs the recovered state at every horizon step, the last one
    included. The input weight ``ru``, the input-rate weight ``rdu`` and the
    four bounds are real numbers (stored as floats) that apply alike to
    every input. Rate bounds constrain u_k - u_{k-1} with the first
    difference taken against the previously applied input. An infinite
    bound means unbounded. A weight or bound that is not a real number, a
    NaN bound, or a non-finite weight or reference raises InvalidInputError.
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

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        if self.q.ndim != 2 or self.q.shape[0] != self.q.shape[1]:
            raise InvalidInputError("q must be a square matrix")
        for name in ("ru", "rdu", "u_min", "u_max", "du_min", "du_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidInputError(f"{name} must be a real number, got {value!r}")
            setattr(self, name, float(value))
        for name in ("q", "ru", "rdu"):
            if not np.isfinite(getattr(self, name)).all():
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
            lo, hi = getattr(self, lo_name), getattr(self, hi_name)
            if math.isnan(lo) or math.isnan(hi):
                raise InvalidInputError(f"{lo_name} and {hi_name} must not be NaN")
            if lo > hi:
                raise InvalidInputError("lower bounds must not exceed upper bounds")


_ACTIVE_SETS_MAX = 256


class ActiveSetTable:
    """The optimal active sets a condensation has met, each with its explicit law.

    Partial enumeration (Pannocchia, Rawlings & Wright 2007): on a set ``A``
    of independent rows ``R_A``, the multipliers are linear in
    ``w = [z0; 1; u_prev]``, the vector that ``CondensedMpc._stack`` maps to
    the unconstrained law ``u*`` and the row slacks ``s(w)``. With the Gram
    matrix ``G = rows H^{-1} rows'``, they are ``L_A w`` with
    ``L_A = G_AA^{-1} s_A``; the plan is ``u* - H^{-1} R_A' L_A w``, and every
    row's slack is ``s(w) - G_A L_A w`` (Bemporad et al. 2002). A set whose
    ``G_AA`` is singular, up to a relative pivot of 1e-12, is not stored.

    ``L_A``, zero-padded to the plan length, and ``A`` (padded with the index
    of a zero row appended to ``G``) live in slots of two buffers, so one
    product screens every stored set. Each slot also keeps the LU factor of
    its set's KKT matrix ``[[H, R_A'], [R_A, 0]]`` with the rows in ascending
    order; it is the factor that the cold solve which found the set made,
    handed to :meth:`record`. As :func:`solve_qp_info` sorts the rows it
    factors, that factor has the bits of any later cold solve that ends on
    the set. A stored law and factor are never changed; the
    least recently recorded set gives up its slot when the table holds
    ``_ACTIVE_SETS_MAX`` sets. The table is the one warm path of
    :meth:`CondensedMpc.plan`, and it only proposes: a proposal is accepted
    only through :meth:`verify`, the set's stored factor with the arithmetic
    of :func:`verify_active_set`.
    """

    def __init__(self, rows, h_inv, slack_map):
        self._gram = np.vstack([rows @ h_inv @ rows.T, np.zeros(rows.shape[0])])
        self._n = h_inv.shape[0]
        self._slack_map = slack_map
        self._slots = {}  # sorted rows -> slot, least recently recorded first
        self._active = []  # slot -> the rows, ascending as solve_qp_info reports them
        self._factors = []  # slot -> (lu, piv) of the set's KKT matrix, rows in that order
        self._laws = self._index = None  # slot buffers, made on the first store

    def propose(self, w, slack, tol):
        """A stored set whose multipliers are ``>= -tol`` and slacks ``<= tol`` at ``w``, or None.

        ``slack`` is ``s(w)``, the last rows of ``_stack @ w``. The most
        recently recorded set is checked first, on its own law, since
        consecutive steps mostly end on the same set; then :meth:`_screen`
        checks every stored set. A non-finite ``w`` passes no law: the slack
        a law leaves on each of its own rows, ``s_A - G_AA L_A w``, is then
        NaN or ``+inf``.
        """
        if not self._active:
            return None
        slot = self._slots[next(reversed(self._slots))]
        rows = self._index[slot, : len(self._active[slot])]
        lam = self._laws[slot, : rows.size] @ w
        if lam.min() >= -tol and (slack - lam @ self._gram.take(rows, axis=0)).max() <= tol:
            return self._active[slot]
        return self._screen(w, slack, tol)

    def _screen(self, w, slack, tol):
        """The first stored set whose law passes at ``w``, from one product over every slot, or None."""
        count, n = len(self._active), self._n
        lam = (self._laws[:count].reshape(count * n, -1) @ w).reshape(count, n)
        cand = np.flatnonzero(lam.min(axis=1) >= -tol)  # a NaN fails
        if cand.size:
            # Each candidate's multipliers on their rows; padding lands on G's zero row.
            on_rows = np.zeros((cand.size, self._gram.shape[0]))
            on_rows[np.arange(cand.size)[:, None], self._index[cand]] = lam[cand]
            ok = (slack - on_rows @ self._gram).max(axis=1) <= tol
            if ok.any():
                return self._active[cand[ok.argmax()]]
        return None

    def verify(self, qp, active, tol):
        """:func:`verify_active_set` of a stored set on its stored factor: the same bits, or None.

        ``active`` is a set that :meth:`propose` returned, and ``qp`` the
        step's problem on the condensation's ``h`` and rows.
        """
        return _verify_on_factor(qp, active, self._factors[self._slots[tuple(sorted(active))]], tol)

    def record(self, active, factor=None):
        """Mark ``active`` (an optimal set's rows, at least one) most recent, storing it if it is new.

        A new set keeps ``factor``, the ``kkt_factor`` that :func:`solve_qp_info` reported with it.
        """
        key = tuple(sorted(active))
        slot = self._slots.pop(key, None)
        if slot is None:
            slot = self._store(active, factor)
        if slot is not None:
            self._slots[key] = slot

    def _store(self, active, factor):
        """Write the law and KKT ``factor`` of ``active`` into a free or the least recent slot; None if singular."""
        rows, n = list(active), self._n
        s = self._gram[np.ix_(rows, rows)]
        chol, info = scipy.linalg.lapack.dpotrf(s)
        # More rows than plan entries are dependent, whatever the pivots read.
        if len(rows) > n or info or np.diag(chol).min() ** 2 <= 1e-12 * np.diag(s).max():
            return None
        lam = scipy.linalg.lapack.dpotrs(chol, self._slack_map[rows])[0]
        if self._laws is None:
            self._laws = _unpaged((_ACTIVE_SETS_MAX, n, lam.shape[1]), float)
            self._index = _unpaged((_ACTIVE_SETS_MAX, n), np.intp)
        if len(self._active) < _ACTIVE_SETS_MAX:
            slot = len(self._active)
            self._active.append(None)
            self._factors.append(None)
        else:
            slot = self._slots.pop(next(iter(self._slots)))
        k = len(rows)
        self._laws[slot, :k], self._laws[slot, k:] = lam, 0.0
        self._index[slot, :k], self._index[slot, k:] = rows, self._gram.shape[0] - 1
        self._active[slot], self._factors[slot] = tuple(active), factor
        return slot


def _unpaged(shape, dtype):
    """An array on an anonymous memory map: a page costs memory only once written, and
    the long-lived buffer stays off the top of the malloc heap, where it would keep
    freed memory above it from going back to the system."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, dtype.itemsize * math.prod(shape)), dtype=dtype).reshape(shape)


class CondensedMpc:
    """Horizon condensation of one model/config pair.

    Everything that does not depend on the current lifted state or the
    previous input (Hessian, prediction maps, constraint rows) is built once.
    The input weights are ``ru * I`` and ``rdu * I``, the state weight ``q``
    holds at every horizon step, and each bound is the same for every input
    and step. The stacked box and rate rows serve both :meth:`is_feasible`
    and the QP solver. The Hessian must be positive definite; its inverse,
    from one Cholesky factorization, is kept, and the solver's rows are
    mapped through the inverse of the same factor. One stacked matrix maps
    ``w = [z0; 1; u_prev]`` to the gradient, the unconstrained minimizer
    ``-H^{-1} g`` and every row's slack; a step whose slacks are nonpositive
    and whose residual ``|H plan + g|`` is within tolerance takes that
    minimizer (Bemporad et al. 2002, explicit LQR). :meth:`plan` is the
    arithmetic of one step.

    Every array is read-only, so one condensation serves every caller whose
    model and config hold the same content: :func:`condensed` builds one per
    content and keeps the last few. Its one mutable part is the
    :class:`ActiveSetTable` of the optimal sets its steps have found, which
    proposes sets and checks them on their stored KKT factors.
    """

    def __init__(self, model, cfg):
        a, b, c = model.a, model.b, model.c
        dim = a.shape[0]
        q_in = b.shape[1]
        ny = c.shape[0]
        q, ref = cfg.q, cfg.reference
        if q.shape[0] != ny:
            coords = list(model.lifting.coords)
            if q.shape[0] != model.lifting.state_dim or len(coords) != ny:
                raise InvalidInputError(
                    f"state weight is {q.shape[0]}-dimensional but the model recovers {ny} states"
                )
            # A partial-state model is weighted on the plant coordinates it recovers.
            q, ref = q[np.ix_(coords, coords)], ref[coords]
        n = cfg.horizon
        ru = float(cfg.ru) * np.eye(q_in)
        rdu = float(cfg.rdu) * np.eye(q_in)

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
        qbar[np.arange(n), :, np.arange(n)] = q  # block diagonal
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
        self.lb = np.full(n * q_in, float(cfg.u_min))
        self.ub = np.full(n * q_in, float(cfg.u_max))
        du_max = np.full(n * q_in, float(cfg.du_max))
        du_min = np.full(n * q_in, float(cfg.du_min))
        # Rate rows u_k - u_{k-1} <= du_max and -(u_k - u_{k-1}) <= -du_min,
        # kept only where the bound is finite.
        keep = np.isfinite(np.concatenate([du_max, -du_min]))
        self.a_ineq = np.vstack([lmat, -lmat])[keep] if keep.any() else None
        self._rate_bound = np.concatenate([du_max, -du_min])[keep]
        self._rate_shift = np.vstack([emat, -emat])[keep]
        # Rate rows first: only their right-hand sides move with u_prev.
        self._rows, self._rhs = _constraint_rows(self.a_ineq, self._rate_bound, self.lb, self.ub)
        # The solver's form of the step QP, on the same factor.
        self._qp = FactoredQp(self.h, None, self._rows, self._rhs, u_inv, self._rows @ u_inv)
        # Maps w = [z0; 1; u_prev] to the gradient, the unconstrained plan and each row's slack.
        gmat = np.hstack([self.g_state, self.g_const[:, None], self.g_uprev])
        law = -(self._h_inv @ gmat)
        offset = np.zeros((self._rhs.size, dim + 1 + q_in))
        offset[:, dim] = self._rhs
        offset[: self._rate_bound.size, dim + 1 :] = self._rate_shift
        self._stack = np.vstack([gmat, law, self._rows @ law - offset])
        self._one = np.ones(1)
        self._u_lo, self._u_hi = self.lb[:q_in], self.ub[:q_in]  # the first move's box
        self._du0_hi = float(cfg.du_max) + 1e-7
        self._du0_lo = float(cfg.du_min) - 1e-7
        self.ru = ru
        self.rdu = rdu
        self.horizon = n
        self.input_dim = q_in
        self.lifted_dim = dim
        for arr in (*vars(self).values(), *self._qp):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        self._table = ActiveSetTable(self._rows, self._h_inv, self._stack[2 * n * q_in :])

    def _checked(self, z0, u_prev):
        """``z0`` and ``u_prev`` as float vectors of the model's sizes, ``u_prev`` finite."""
        z0 = np.asarray(z0, dtype=float).reshape(-1)
        u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
        if z0.size != self.lifted_dim:
            raise InvalidInputError("lifted state length does not match the model")
        if u_prev.size != self.input_dim:
            raise InvalidInputError("u_prev length does not match the model input")
        if not np.isfinite(u_prev).all():
            raise InvalidInputError("previous input is not finite")
        return z0, u_prev

    def _w(self, z0, u_prev):
        """``[z0; 1; u_prev]``, the step vector ``_stack`` maps."""
        return np.concatenate((z0, self._one, u_prev))

    @staticmethod
    def _finite(w):
        """``w``; raises InvalidInputError if an entry is not finite."""
        if not np.isfinite(w).all():
            raise InvalidInputError("lifted state is not finite")
        return w

    def _product(self, z0, u_prev):
        """The step's ``[g; -H^{-1} g; rows @ plan - rhs]``; a non-finite ``z0`` raises."""
        return self._stack @ self._finite(self._w(z0, u_prev))

    def _gradient(self, z0, u_prev):
        """The step's QP gradient, the leading rows of :meth:`_product`."""
        return self._product(z0, u_prev)[: self.h.shape[0]]

    def qp(self, z0, u_prev):
        z0, u_prev = self._checked(z0, u_prev)
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

    def is_feasible(self, u_seq, u_prev, tol=1e-9):
        """Whether a stacked plan meets every box and rate row to within ``tol``."""
        u_seq = np.asarray(u_seq, dtype=float).reshape(-1)
        u_prev = np.asarray(u_prev, dtype=float).reshape(-1)
        if u_seq.size != self._rows.shape[1] or u_prev.size != self.input_dim:
            raise InvalidInputError("plan or u_prev length does not match the controller")
        # The box entry by entry: a zero row coefficient would make an infinite entry NaN.
        r = self._rate_bound.size
        box = (self.lb - tol <= u_seq).all() and (u_seq <= self.ub + tol).all()
        return bool(box and (self._rows[:r] @ u_seq <= self._step_rhs(u_prev)[:r] + tol).all())

    def plan(self, w, qp_tol):
        """One step's plan: ``(u, plan, iterations, kkt_residual, active_set, guess_hit)``.

        ``w`` is the step vector ``[z0; 1; u_prev]`` (:meth:`_w`) of the
        model's sizes, checked for finiteness here and not kept (see
        :func:`mpc_step` for the rules). ``plan`` is the stacked solution, the
        ``N`` moves of ``q`` inputs one after another, and ``u`` its first
        move clipped to the input box; only ``u`` is checked against the
        rate bound. A step that leaves the unconstrained law checks the
        table's one proposal, if any, on the set's stored KKT factor
        (:meth:`ActiveSetTable.verify`, the bits of :func:`verify_active_set`),
        and otherwise (or if that rejects it) runs the cold solve; it records
        the optimal set it ends on in the table. A verified proposal reports
        ``guess_hit`` and 0 iterations.

        Raises:
            InvalidInputError: ``w`` is not finite.
            InfeasibleError: the bounds admit no plan, or the first planned
                input change breaks the rate bound by more than 1e-7.
            ConvergenceError: the solver's plan misses ``qp_tol``.
        """
        n = self.h.shape[0]
        out = self._stack @ self._finite(w)
        u_prev = w[self.lifted_dim + 1 :]
        g, sol, slack = out[:n], out[n : 2 * n], out[2 * n :]
        iterations, residual, active, hit, factor = 0, np.inf, None, None, None
        if slack.max(initial=-np.inf) <= 0.0:  # no rows passes, a NaN slack fails
            residual = float(np.abs(self.h @ sol + g).max())
        if not residual <= qp_tol:  # a NaN residual fails too
            qp = self._qp._replace(g=g, rhs=self._step_rhs(u_prev))
            active = self._table.propose(w, slack, math.sqrt(qp_tol))
            if active is not None:
                hit = self._table.verify(qp, active, qp_tol)
            if hit is not None:
                sol, residual = hit
            else:
                sol, info = solve_qp_info(qp, tol=qp_tol)
                iterations, residual, active = info["iterations"], info["kkt_residual"], info.get("active")
                factor = info.get("kkt_factor")
            if active:
                self._table.record(active, factor)
        u = np.minimum(np.maximum(sol[: self.input_dim], self._u_lo), self._u_hi)  # .clip's bits
        self.check_move(u, u_prev, "first planned input change")
        return u, sol, iterations, residual, active, hit is not None

    def check_move(self, u, u_prev, what):
        """Raise InfeasibleError if ``u - u_prev`` breaks the rate bound by more than 1e-7."""
        du = u - u_prev
        # Python floats: a few entries compare faster than through numpy. A NaN fails.
        if not all(self._du0_lo <= d <= self._du0_hi for d in du.tolist()):
            raise InfeasibleError(f"{what} {du} breaks the rate bound")


def _content(value):
    arr = np.asarray(value, dtype=float)
    return arr.shape, arr.strides, arr.tobytes()


def _condense_key(model, cfg):
    """Everything :class:`CondensedMpc` reads of ``model`` and ``cfg``, by content and layout.

    Every field of the config is in the key, so a field added later is too.
    """
    lifting = model.lifting
    config = [getattr(cfg, f.name) for f in fields(cfg)]
    arrays = map(_content, (model.a, model.b, model.c, *config))
    return (*arrays, tuple(lifting.coords), lifting.state_dim)


_CONDENSED_MAX = 8
_condensations = {}  # key -> CondensedMpc, least recently used first


def condensed(model, cfg):
    """The :class:`CondensedMpc` of ``model`` and ``cfg``, built once per content.

    The last ``_CONDENSED_MAX`` condensations are kept, keyed on the content
    of every array and value the condensation reads, so an in-place change
    to a model matrix or a config bound gets a fresh one.
    """
    key = _condense_key(model, cfg)
    cond = _condensations.pop(key, None)
    if cond is None:
        cond = CondensedMpc(model, cfg)
        if len(_condensations) >= _CONDENSED_MAX:
            del _condensations[next(iter(_condensations))]
    _condensations[key] = cond
    return cond


@dataclass
class MpcStep:
    """Outcome of one receding-horizon solve.

    A step whose unconstrained minimizer satisfies every bound reports
    ``qp_iterations == 0``, that minimizer's finite stationarity residual
    ``||H u + g||_inf`` as ``kkt_residual``, and no ``active_set``. Any other
    step reports the KKT residual and the active rows (indices into the
    condensed QP's stacked rows) of its plan: a verified proposal of the
    condensation's table of optimal sets (``guess_hit``: the table guessed
    the optimal set) with 0 iterations, or else the dual active-set solve
    with its iterations.
    """

    u: np.ndarray                 # applied input (first element of the plan)
    input_sequence: np.ndarray    # (q, N) planned inputs
    qp_iterations: int
    kkt_residual: float
    active_set: tuple | None = None  # active rows of the plan; None on the unconstrained law
    guess_hit: bool = False          # the plan came from a verified table proposal


def mpc_step(
    model,
    x_measured,
    u_prev,
    cfg,
    history_states=None,
    history_inputs=None,
    qp_tol=1e-8,
):
    """Solve the horizon problem from a fresh measurement and return the plan.

    The measurement is lifted through the model (consuming history for delay
    kinds); the model's own predictions are never fed back in. The
    condensation comes from :func:`condensed`, so it is built once per model
    and config content. The returned ``u`` is the first element of the
    optimized sequence, clipped to the input box to remove solver-tolerance
    dust. The step keeps the plan, not the states it predicts:
    ``predict_rollout`` of ``input_sequence`` gives those.

    The unconstrained minimizer is taken when it meets every stacked box and
    rate row and its stationarity residual is within ``qp_tol``. Otherwise
    the condensation's table of optimal sets (:class:`ActiveSetTable`) may
    propose one set whose explicit law fits this step: its most recently
    recorded set, or else the first stored set that passes its screen. The
    proposal is checked with two triangular solves on the set's stored KKT
    factor and taken if its plan is optimal within ``qp_tol``; it is only
    verified, never iterated from. Failing that, the condensed QP, on the
    same rows, goes to the dual active-set solver, which starts from the
    unconstrained minimizer.
    :meth:`CondensedMpc.plan` does this arithmetic.

    Raises:
        InvalidInputError: the lifted measurement or ``u_prev`` is not
            finite, or ``qp_tol`` is not positive and finite.
        InfeasibleError: the bounds admit no plan, or the first planned
            input change breaks the rate bound by more than 1e-7.
        ConvergenceError: the solver's plan misses the KKT tolerance.
    """
    check_positive(qp_tol, "qp_tol")
    cond = condensed(model, cfg)
    z0 = model.lift(x_measured, history_states=history_states, history_inputs=history_inputs)
    u, plan, iterations, residual, active, hit = cond.plan(cond._w(*cond._checked(z0, u_prev)), qp_tol)
    q_in = cond.input_dim
    return MpcStep(
        u=u,
        input_sequence=plan.reshape(cond.horizon, q_in).T.clip(cond.lb[:q_in, None], cond.ub[:q_in, None]),
        qp_iterations=iterations,
        kkt_residual=residual,
        active_set=active,
        guess_hit=hit,
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


def _stage_costs(cfg, x, u, u_prev):
    """Stage costs ``e'q e + u'ru u + du'rdu du`` of the columns of ``x``, ``u`` and ``u_prev``.

    ``e = x - reference`` and ``du = u - u_prev``. Each ``v'w v`` sums
    elementwise products in a fixed order, without BLAS, so a column's cost
    has the same bits whether it is priced alone or among many.
    """
    eye = np.eye(u.shape[0])
    total = 0.0
    for w, v in ((cfg.q, x - cfg.reference[:, None]), (cfg.ru * eye, u), (cfg.rdu * eye, u - u_prev)):
        for j in range(w.shape[1]):
            vw = v[0] * w[0, j]
            for i in range(1, w.shape[0]):
                vw = vw + v[i] * w[i, j]
            total = total + vw * v[j]
    return total


def closed_loop_run(plant, model, cfg, x0, t_end, dt, qp_tol=1e-8):
    """Drive the true plant with receding-horizon control on the model.

    At every step the true state is measured, lifted, and a fresh horizon
    problem is solved; the first planned input is applied to the plant for
    one integrator step. Stage costs are evaluated on the true state with the
    applied input, for all steps at once after the loop (or a failing step),
    with the bits of pricing each step alone. A delay model first idles for
    its ``history_steps`` warm-up steps while the measurement history fills,
    at u = 0 clipped to the input box; the move onto that input from
    ``u_prev = 0`` must meet the rate bound, as a planned first move must,
    and ``t_end`` must cover more steps than the warm-up. A step that leaves
    the unconstrained law asks the condensation's table of optimal sets for
    a proposal before the cold solve (see :func:`mpc_step`).

    ``x0``, ``dt``, ``qp_tol`` and the plant's state and input counts,
    which must be the lifting's ``state_dim`` and the model's
    ``input_dim``, are checked once, before the first step, and the
    condensation comes from :func:`condensed`. The loop keeps one step vector
    ``w = [z; 1; u_prev]``: every step, warm-up steps included, advances
    ``z`` to the measured state with the lifting's ``lift_next`` (bitwise
    the lift of the step's window once the warm-up is over), a step past
    the warm-up solves from ``w`` with :meth:`CondensedMpc.plan`, the
    arithmetic of :func:`mpc_step`, and the applied input goes into ``w``'s
    tail. So the loop is bitwise the loop of ``mpc_step`` and ``rk4_step``
    calls. What can fail only on a step's values is still checked every
    step: a lift that is not finite, the unconstrained law's rows and
    residual, a proposal's KKT residual, the solver's tolerance, the first
    move's rate bound and the plant's divergence.

    ``solve_stats`` holds per-step ``iterations``, ``kkt_residual`` and
    ``guess_hit`` arrays; ``guess_hit`` marks a plan found by the table. A
    step solved by the unconstrained law or a verified table proposal has 0
    iterations and a finite residual; a delay warm-up step, which solves
    nothing, has 0 iterations and a NaN residual.

    Any :class:`KoopmpcError` raised at step ``k`` (a divergence, an
    infeasible horizon problem, a solver that misses ``qp_tol``) keeps its
    type and carries ``partial``, the result of the ``k`` completed steps. A
    failed plan's message names step ``k``; a divergence's names its time.
    """
    n_steps = _n_steps(t_end, dt)
    check_positive(qp_tol, "qp_tol")
    if not abs(dt - model.dt) <= 1e-12 * max(1.0, abs(model.dt)):  # a NaN model.dt fails
        raise InvalidInputError(f"dt {dt} does not match the model timestep {model.dt}")
    warmup = model.lifting.history_steps
    if n_steps <= warmup:
        raise InvalidInputError(
            f"t_end covers {n_steps} steps; a closed loop needs more than the "
            f"model's {warmup} warm-up steps"
        )
    q_in = model.input_dim
    if (plant.state_dim, plant.input_dim) != (model.lifting.state_dim, q_in):
        raise InvalidInputError(
            f"the plant has state_dim {plant.state_dim} and input_dim {plant.input_dim}; the model "
            f"needs state_dim {model.lifting.state_dim} and input_dim {q_in}"
        )
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != plant.state_dim or not np.isfinite(x).all():
        raise InvalidInputError("x0 must be finite and match the plant's state dimension")
    cond = condensed(model, cfg)
    states = np.empty((plant.state_dim, n_steps + 1))
    inputs = np.empty((q_in, n_steps))
    lift_next = model.lifting.lift_next
    iters = np.zeros(n_steps, dtype=int)
    resid = np.full(n_steps, np.nan)
    hits = np.zeros(n_steps, dtype=bool)
    states[:, 0] = x
    dim = cond.lifted_dim
    w = np.zeros(dim + 1 + q_in)
    w[dim] = 1.0
    z, u_prev = w[:dim], w[dim + 1 :]  # views: lift_next and the loop write w in place
    times = np.arange(n_steps + 1) * dt

    def partial(k):
        traj = Trajectory(times[: k + 1], states[:, : k + 1], inputs[:, :k])
        u_prevs = np.hstack([np.zeros((q_in, 1)), inputs[:, :k]])[:, :k]
        stage = _stage_costs(cfg, states[:, :k], inputs[:, :k], u_prevs)
        return ClosedLoopResult(
            trajectory=traj,
            stage_costs=stage,
            cumulative_cost=np.cumsum(stage),
            solve_stats={
                "iterations": iters[:k].copy(),
                "kkt_residual": resid[:k].copy(),
                "guess_hit": hits[:k].copy(),
            },
            warmup_steps=warmup,
        )

    u_idle = np.clip(np.zeros(q_in), cond.lb[:q_in], cond.ub[:q_in])
    for k in range(n_steps):
        try:
            lift_next(z, x, u_prev)
            if k < warmup:
                u = u_idle.copy()
                cond.check_move(u, u_prev, "warm-up input change")
            else:
                u, _, iters[k], resid[k], _, hits[k] = cond.plan(w, qp_tol)
            inputs[:, k] = u
            x = rk4_step(plant, x, u, times[k], dt)
        except KoopmpcError as err:
            err.partial = partial(k)
            if not isinstance(err, DivergenceError):  # a divergence names its time already
                err.args = (f"horizon problem failed at step {k}: {err}",) + err.args[1:]
            raise
        states[:, k + 1] = x
        u_prev[:] = u

    return partial(n_steps)
