"""Fitting linear operator models with control, and rolling them forward.

All fits are one minimum-norm least-squares regression over the lifted
trajectory batch (:func:`fit_edmdc`); what differs between model kinds is
the lifting.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Trajectory, _first_dims, _join, _path_batches, check_positive
from .errors import InsufficientDataError, InvalidInputError, MissingHistoryError, NoEigenfunctionError
from .numerics import DEFAULT_SVD_TOL, lstsq_min_norm
from .observables import (
    DelayCoordinates,
    Dictionary,
    eval_dictionary,
    eval_gradients,
    identity_dictionary,
)

KIND_DMDC = "dmdc"
KIND_EDMDC = "edmdc"
KIND_DELAY_AUGMENTED = "delay-augmented"
MODEL_KINDS = (KIND_DMDC, KIND_EDMDC, KIND_DELAY_AUGMENTED)


@dataclass
class LinearControlModel:
    """Discrete-time model z' = a z + b u with state recovery x = c z."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lifting: Dictionary | DelayCoordinates
    dt: float
    kind: str
    fit_residual: float = float("nan")
    training_hash: str | None = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        d = self.a.shape[0]
        if self.a.shape != (d, d) or self.b.shape[0] != d or self.c.shape[1] != d:
            raise InvalidInputError("model matrices have inconsistent shapes")
        if self.lifting.n_out != d:
            raise InvalidInputError(f"the lifting gives {self.lifting.n_out} coordinates, but a is {d} x {d}")
        for name in ("a", "b", "c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInputError(f"model matrix {name} is not finite")
        check_positive(self.dt, "dt")

    @property
    def lifted_dim(self):
        return self.a.shape[0]

    @property
    def input_dim(self):
        return self.b.shape[1]

    @property
    def recovered_dim(self):
        return self.c.shape[0]

    def lift(self, x, history_states=None, history_inputs=None):
        """Lifted measurement ``x``: the one-window call of ``lift_windows``.

        The window ends with ``x`` after the last ``history_steps`` columns of
        ``history_states`` and ``history_inputs``; a lifting without history
        ignores both.
        """
        h = self.lifting.history_steps
        states = np.asarray(x, dtype=float).reshape(-1, 1)
        if states.shape[0] != self.lifting.state_dim:
            raise InvalidInputError(f"x has {states.shape[0]} entries, not {self.lifting.state_dim}")
        inputs = np.empty((self.input_dim, 0))
        if h:
            if history_states is None or np.shape(history_states)[-1] < h:
                raise MissingHistoryError(f"need {h} past states for the lifting")
            states = np.concatenate([np.atleast_2d(history_states)[:, -h:], states], axis=1)
            if history_inputs is not None:
                inputs = np.atleast_2d(history_inputs)[:, -h:]
        return self.lifting.lift_windows(states, inputs)[:, 0]

    def step(self, z, u):
        """Next lifted state from lifted state ``z`` under input ``u``."""
        return self.a @ z + self.b @ u


def _regress(reg, target, svd_tol):
    """w with w @ reg ~= target, minimum norm; returns (w, frobenius residual)."""
    w = lstsq_min_norm(reg.T, target.T, svd_tol).T
    # Not np.linalg.norm: its BLAS dot sums in an order set by the thread count.
    residual = math.sqrt(float(np.sum(np.square(w @ reg - target))))
    return w, residual


def _training_hash(batches, dt):
    """Short content hash of the (x_k, x_{k+1}, u_k) columns of every path and ``dt``, for provenance."""
    h = hashlib.sha256()
    states = [s for s, _ in batches]
    for part in ([s[..., :-1] for s in states], [s[..., 1:] for s in states], [u for _, u in batches]):
        h.update(_join([a.reshape(len(a), math.prod(a.shape[1:])) for a in part]).tobytes())
    h.update(np.float64(dt).tobytes())
    return h.hexdigest()[:16]


def fit_edmdc(trajectories, lifting, dt, svd_tol=DEFAULT_SVD_TOL):
    """Fit z' = A z + B u, x = C z on lifted trajectories: every model kind is this fit.

    ``trajectories`` is one :class:`Trajectory` or a sequence of them, each a
    path or a batch, sampled ``dt`` apart; paths of differing dimensions or
    spacing raise InvalidInputError. Each batch lifts once, through
    ``lifting.lift_windows``. The lifting's free rows of ``z_{k+1}`` are
    regressed on ``[z_k; u_k]`` by one minimum-norm least-squares solve, over
    the columns of all paths in order; ``lifting.fixed_rows`` supplies every
    other row of A and B, and C. A batch too short to give one pair of
    lifted states adds no columns; fewer than ``dim + q`` columns in all
    raise InsufficientDataError.
    """
    _, q = _first_dims(trajectories)
    batches, dt = _path_batches(trajectories, dt)
    n_free, a, b, c = lifting.fixed_rows(q)
    dim, h = a.shape[0], lifting.history_steps
    batches_used = [(s, u) for s, u in batches if s.shape[-1] > h + 1]
    n_cols = sum(s.shape[1] * (s.shape[-1] - h - 1) for s, _ in batches_used)
    if n_cols < dim + q:
        raise InsufficientDataError(f"need at least {dim + q} lifted columns, got {n_cols}")
    lifted = [lifting.lift_windows(s, u) for s, u in batches_used]
    reg = np.vstack([
        _join([z[..., :-1].reshape(dim, -1) for z in lifted]),
        _join([u[..., h:].reshape(q, u.shape[1] * (u.shape[2] - h)) for _, u in batches_used]),
    ])
    # One batch of one-step paths gives a strided view, which products round differently.
    target = np.ascontiguousarray(_join([z[:n_free, :, 1:].reshape(n_free, -1) for z in lifted]))
    w, residual = _regress(reg, target, svd_tol)
    a[:n_free], b[:n_free] = w[:, :dim], w[:, dim:]
    return LinearControlModel(a=a, b=b, c=c, lifting=lifting, dt=dt, kind=KIND_EDMDC,
                              fit_residual=residual, training_hash=_training_hash(batches, dt))


def fit_dmdc(trajectories, dt, svd_tol=DEFAULT_SVD_TOL):
    """Least-squares fit of x' = A x + B u: :func:`fit_edmdc` over the state coordinates alone."""
    dic = identity_dictionary(_first_dims(trajectories)[0])
    return replace(fit_edmdc(trajectories, dic, dt, svd_tol), kind=KIND_DMDC)


def fit_delay_augmented(trajectories, depth, dt, svd_tol=DEFAULT_SVD_TOL, coords=None):
    """:func:`fit_edmdc` on a causal, input-augmented delay lifting of ``depth`` samples.

    The lifting is :class:`DelayCoordinates` over ``coords`` (default: every
    state coordinate). Only the newest-sample rows are regressed; the
    lifting fixes the shifts below them.
    """
    n, q = _first_dims(trajectories)
    lifting = DelayCoordinates(depth, tuple(range(n)) if coords is None else coords, n, q)
    return replace(fit_edmdc(trajectories, lifting, dt, svd_tol), kind=KIND_DELAY_AUGMENTED)


@dataclass(frozen=True)
class Eigenfunction:
    """A sparse library expansion phi(x) = Theta(x) @ coefficients."""

    eigenvalue: float
    coefficients: np.ndarray  # unit norm over the library
    residual: float
    residual_history: tuple

    def support(self, threshold=1e-12):
        return tuple(int(i) for i in np.flatnonzero(np.abs(self.coefficients) > threshold))


def identify_eigenfunctions(
    x,
    xdot,
    theta,
    eigenvalue,
    sparsity_threshold=0.05,
    residual_bound=1e-6,
    max_rounds=20,
):
    """Identify a sparse generator eigenfunction at a trial eigenvalue.

    Builds the matrix whose k-th row is xdot_k . grad Theta(x_k) - lambda
    Theta(x_k), takes the right singular vector of smallest singular value,
    then repeatedly zeroes coefficients below ``sparsity_threshold`` (relative
    to the largest magnitude) and re-solves on the surviving support. A
    thresholding round is kept only if it does not increase the residual, so
    the recorded residual history is nonincreasing.

    Raises NoEigenfunctionError if the final residual exceeds
    ``residual_bound``.
    """
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    if x.ndim != 2 or xdot.shape != x.shape:
        raise InvalidInputError("x and xdot must be matching (n, m) arrays")
    grads = eval_gradients(theta, x)  # (p, n, m)
    vals = eval_dictionary(theta, x)  # (p, m)
    mmat = (np.sum(grads * xdot[None, :, :], axis=1) - eigenvalue * vals).T  # (m, p)
    p = mmat.shape[1]

    def smallest_right_singular(cols):
        sub = mmat[:, cols]
        _, _, vt = np.linalg.svd(sub, full_matrices=sub.shape[0] < sub.shape[1])
        xi = np.zeros(p)
        xi[cols] = vt[-1]
        return xi / np.linalg.norm(xi)

    xi = smallest_right_singular(list(range(p)))
    residual = float(np.linalg.norm(mmat @ xi))
    history = [residual]
    support = list(range(p))
    for _ in range(max_rounds):
        new_support = [int(i) for i in np.flatnonzero(np.abs(xi) >= sparsity_threshold * np.max(np.abs(xi)))]
        if new_support == support:
            break
        candidate = smallest_right_singular(new_support)
        cand_res = float(np.linalg.norm(mmat @ candidate))
        if cand_res > residual:
            break
        xi, residual, support = candidate, cand_res, new_support
        history.append(residual)
    lead = int(np.flatnonzero(np.abs(xi) > 1e-12)[0])
    if xi[lead] < 0:
        xi = -xi
    if residual > residual_bound:
        raise NoEigenfunctionError(
            f"no eigenfunction at eigenvalue {eigenvalue}: residual {residual:.2e} "
            f"exceeds bound {residual_bound:.1e}",
            residual=residual,
        )
    return Eigenfunction(
        eigenvalue=float(eigenvalue),
        coefficients=xi,
        residual=residual,
        residual_history=tuple(history),
    )


def _as_input_matrix(inputs, q):
    u = np.asarray(inputs, dtype=float)
    if u.size == 0:
        return np.zeros((q, 0))
    if u.ndim == 1:
        if q != 1:
            raise InvalidInputError("1-D input sequence only valid for single-input models")
        u = u[None, :]
    if u.shape[0] != q:
        raise InvalidInputError(f"input rows {u.shape[0]} do not match model input dim {q}")
    return u


def rollout_from_lifted(model, z, u):
    """Recovered states of ``model`` stepped from lifted ``z`` under inputs ``u``.

    One lifted state ``z`` (d,) under (q, N) inputs gives (ny, N+1) states.
    ``M`` lifted states as the columns of ``z`` (d, M) under (q, M, N) inputs
    step in lockstep, one matrix product per step, and give (ny, M, N+1)
    states.
    """
    if np.shape(u)[1:-1] != np.shape(z)[1:]:
        raise InvalidInputError(
            f"inputs of shape {np.shape(u)} do not match lifted states of shape {np.shape(z)}"
        )
    states = np.empty(model.c.shape[:1] + np.shape(z)[1:] + (u.shape[-1] + 1,))
    states[..., 0] = model.c @ z
    for k in range(u.shape[-1]):
        z = model.step(z, u[..., k])
        states[..., k + 1] = model.c @ z
    return states


def predict_rollout(model, x0, inputs, history_states=None, history_inputs=None):
    """Roll a fitted model forward under an input sequence.

    The initial condition is lifted once; afterwards the iteration stays in
    the lifted space and states are recovered through the model's selector at
    every step, never re-lifting intermediate predictions.
    """
    u = _as_input_matrix(inputs, model.input_dim)
    z = model.lift(x0, history_states=history_states, history_inputs=history_inputs)
    states = rollout_from_lifted(model, z, u)
    return Trajectory(times=np.arange(u.shape[1] + 1) * model.dt, states=states, inputs=u)
