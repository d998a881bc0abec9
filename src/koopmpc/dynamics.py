"""Controlled plants, fixed-step integration, and training-data generation."""

from __future__ import annotations

import hashlib
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvalidInputError

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class ControlSystem:
    """A controlled dynamical system.

    For ``kind == "flow"`` the callable ``rhs(x, u, t)`` returns the state
    derivative; for ``kind == "map"`` it returns the next state directly and
    time is measured in steps. ``rhs`` must accept ``x`` of shape (n,) or
    (n, m) with ``u`` of matching trailing shape and return the same shape
    as ``x``.
    """

    state_dim: int
    input_dim: int
    rhs: Callable[..., np.ndarray]
    kind: str = "flow"

    def __post_init__(self):
        if self.state_dim < 1 or self.input_dim < 0:
            raise InvalidInputError("state_dim must be >= 1 and input_dim >= 0")
        if self.kind not in ("flow", "map"):
            raise InvalidInputError(f"unknown system kind {self.kind!r}")


class VanDerPolRhs:
    """Forced van der Pol field in first-order form.

    x1' = x2, x2' = mu * (1 - x1^2) * x2 - x1 + u.
    """

    def __init__(self, mu):
        self.mu = float(mu)

    def __call__(self, x, u, t):
        x1, x2 = x[0], x[1]
        out = np.empty(np.shape(x))
        out[0] = x2
        out[1] = self.mu * (1.0 - x1 * x1) * x2 - x1 + u[0]
        return out


def make_vanderpol(mu=0.2):
    """Two-state, one-input van der Pol oscillator with damping ``mu``."""
    if not np.isfinite(mu):
        raise InvalidInputError("mu must be finite")
    return ControlSystem(state_dim=2, input_dim=1, rhs=VanDerPolRhs(mu))


def check_positive(value, name):
    """Raise InvalidInputError naming ``name`` unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")


def rk4_update(rhs, x, u, t, dt):
    """The classical 4th-order Runge-Kutta update of ``x`` with ``u`` held constant.

    Works on one state (n,) or on columns (n, m) alike, with no checks: a
    batch may carry non-finite columns through.
    """
    k1 = rhs(x, u, t)
    k2 = rhs(x + 0.5 * dt * k1, u, t + 0.5 * dt)
    k3 = rhs(x + 0.5 * dt * k2, u, t + 0.5 * dt)
    k4 = rhs(x + dt * k3, u, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(sys, x, u, t, dt):
    """One classical 4th-order Runge-Kutta step with ``u`` held constant.

    Raises DivergenceError when any component of the new state is not within
    ``DIVERGENCE_LIMIT`` in magnitude, NaN and infinity included.
    """
    if sys.kind != "flow":
        raise InvalidInputError("rk4_step requires a continuous-time system")
    check_positive(dt, "dt")
    out = rk4_update(sys.rhs, np.asarray(x, dtype=float), np.asarray(u, dtype=float), t, dt)
    if not (np.abs(out) <= DIVERGENCE_LIMIT).all():
        raise DivergenceError(f"state left |x| <= {DIVERGENCE_LIMIT:.0e} at t={t + dt:.4g}")
    return out


@dataclass
class Trajectory:
    """Sampled paths of a controlled system: one path, or ``M`` paths at the same times.

    One path holds ``states`` (n, k+1) and ``inputs`` (q, k); a batch holds
    ``states`` (n, M, k+1) and ``inputs`` (q, M, k), the ``(n, [M,] T)``
    layout of the liftings. ``inputs`` holds one value per step (zero-order
    hold over ``[t_k, t_{k+1})``), so it is one sample shorter than
    ``states``; inputs as long as ``times`` lose their last sample. The
    arrays are checked once, here.
    """

    times: np.ndarray   # (k+1,)
    states: np.ndarray  # (n, k+1) or (n, M, k+1)
    inputs: np.ndarray  # (q, k) or (q, M, k)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.states = np.asarray(self.states, dtype=float)
        self.inputs = np.asarray(self.inputs, dtype=float)
        if self.states.ndim not in (2, 3) or self.states.shape[-1] != self.times.size:
            raise InvalidInputError("states must be (n, len(times)) or (n, M, len(times))")
        if self.inputs.ndim != self.states.ndim or self.inputs.shape[1:-1] != self.states.shape[1:-1]:
            raise InvalidInputError("inputs must be (q, k) for one path or (q, M, k) for M paths")
        if self.inputs.shape[-1] == self.times.size:
            self.inputs = self.inputs[..., :-1]
        if self.inputs.shape[-1] != max(self.times.size - 1, 0):
            raise InvalidInputError("inputs must have one column per step")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise InvalidInputError("times must be strictly increasing")
        if not (
            np.all(np.isfinite(self.times))
            and np.all(np.isfinite(self.states))
            and np.all(np.isfinite(self.inputs))
        ):
            raise InvalidInputError("trajectory contains non-finite values")

    @property
    def state_dim(self):
        return self.states.shape[0]

    @property
    def input_dim(self):
        return self.inputs.shape[0]

    @property
    def n_steps(self):
        return self.times.size - 1

    @property
    def n_paths(self):
        return self.states.shape[1] if self.states.ndim == 3 else 1

    def as_batch(self):
        """``(states, inputs)`` as (n, M, k+1) and (q, M, k) arrays; one path is M = 1 (views)."""
        if self.states.ndim == 3:
            return self.states, self.inputs
        return self.states[:, np.newaxis], self.inputs[:, np.newaxis]


@dataclass
class SampleSet:
    """Snapshot triples (x_k, x_k', u_k) sampled ``dt`` apart, stored columnwise."""

    x: np.ndarray   # (n, m)
    xp: np.ndarray  # (n, m)
    u: np.ndarray   # (q, m)
    dt: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xp = np.asarray(self.xp, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.x.ndim != 2 or self.xp.shape != self.x.shape:
            raise InvalidInputError("x and xp must be matching (n, m) arrays")
        if self.u.ndim != 2 or self.u.shape[1] != self.x.shape[1]:
            raise InvalidInputError("u must be (q, m) with m matching x")
        check_positive(self.dt, "dt")

    @property
    def state_dim(self):
        return self.x.shape[0]

    @property
    def input_dim(self):
        return self.u.shape[0]

    @property
    def n_samples(self):
        return self.x.shape[1]


def sample_hash(data):
    """Short content hash of a sample set, for model provenance records."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.x).tobytes())
    h.update(np.ascontiguousarray(data.xp).tobytes())
    h.update(np.ascontiguousarray(data.u).tobytes())
    h.update(np.float64(data.dt).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class ForcingSignal:
    """Single input u(t) = amplitude * sin(|omega1| t) * sin(|omega2| t), for any t >= 0.

    The training data are forced by such signals (see :func:`product_sines_family`).
    """

    amplitude: float = 0.0
    omega1: float = 0.0
    omega2: float = 0.0

    @classmethod
    def product_sines(cls, amplitude, omega1, omega2):
        return cls(amplitude=float(amplitude), omega1=float(omega1), omega2=float(omega2))

    def evaluate(self, t):
        """The input at time ``t``: shape (1,) for a scalar ``t``, (1, k) for k times.

        A 1-D array of times gives the same values, bit for bit, as one scalar
        call per entry.
        """
        t = np.asarray(t, dtype=float)
        if t.ndim > 1 or not np.isfinite(t).all():
            raise InvalidInputError("t must be a finite scalar or 1-D array of times")
        u = self.amplitude * np.sin(abs(self.omega1) * t) * np.sin(abs(self.omega2) * t)
        return u[np.newaxis]


def product_sines_family(amplitude=5.0, omega_std=10.0):
    """Family of product-of-sines signals with frequencies drawn N(0, omega_std^2).

    Returns a callable taking an ``numpy.random.Generator`` and producing one
    ForcingSignal, for use with :func:`generate_training_trajectories`.
    """

    def make(rng):
        w = rng.normal(0.0, omega_std, size=2)
        return ForcingSignal.product_sines(amplitude, w[0], w[1])

    return make


def _n_steps(t_end, dt):
    if not (math.isfinite(t_end) and 0.0 < dt < math.inf):
        raise InvalidInputError("t_end must be finite and dt positive and finite")
    return int(math.floor(t_end / dt + 1e-9))


def _time_grid(sys, t_end, dt):
    """Sample times ``k * dt`` of a flow simulation over ``[0, t_end]``."""
    if sys.kind != "flow":
        raise InvalidInputError("simulate requires a continuous-time system")
    if t_end <= 0 or dt <= 0:
        raise InvalidInputError("t_end and dt must be positive")
    return np.arange(_n_steps(t_end, dt) + 1) * dt


def _integrate_columns(rhs, x0, inputs, times, dt):
    """RK4 of every column of ``x0`` (n, M) in lockstep under held ``inputs`` (q, M, k).

    Step ``s`` runs from ``times[s]``. Returns the states (n, M, k+1) and, per
    column, the number of steps taken before its state first left
    ``|x| <= DIVERGENCE_LIMIT`` (NaN and infinity included), or k if it never
    did. A column's states after that step are meaningless; the loop stops
    once every column has left.
    """
    n_steps = inputs.shape[2]
    states = np.empty(x0.shape + (n_steps + 1,))
    states[:, :, 0] = x = x0
    steps = np.full(x0.shape[1], n_steps)
    alive = np.ones(x0.shape[1], dtype=bool)
    with np.errstate(all="ignore"):
        for s in range(n_steps):
            x = rk4_update(rhs, x, inputs[:, :, s], times[s], dt)
            states[:, :, s + 1] = x
            left = alive & ~(np.abs(x) <= DIVERGENCE_LIMIT).all(axis=0)
            if left.any():
                steps[left] = s
                alive &= ~left
                if not alive.any():
                    break
    return states, steps


def simulate(sys, x0, forcing, t_end, dt):
    """Integrate a flow system with zero-order-hold inputs sampled at step starts.

    The inputs are ``forcing.evaluate`` at every step start, taken in one
    call; the states are the one-column case of the lockstep RK4 loop that
    :func:`generate_training_trajectories` runs. Raises DivergenceError,
    carrying the trajectory up to the last state within ``DIVERGENCE_LIMIT``,
    at the first step that leaves it.
    """
    times = _time_grid(sys, t_end, dt)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != sys.state_dim or not np.isfinite(x).all():
        raise InvalidInputError("x0 must be finite and match the system state dimension")
    inputs = np.empty((sys.input_dim, 1, times.size - 1))
    inputs[:, 0] = forcing.evaluate(times[:-1])
    states, steps = _integrate_columns(sys.rhs, x[:, np.newaxis], inputs, times, dt)
    k = steps[0]
    traj = Trajectory(times[: k + 1], states[:, 0, : k + 1], inputs[:, 0, :k])
    if k < times.size - 1:
        raise DivergenceError(
            f"state left |x| <= {DIVERGENCE_LIMIT:.0e} at t={times[k] + dt:.4g}", partial=traj
        )
    return traj


def _count(value, name, low):
    """``value`` as an int of at least ``low``; a bool or anything else raises InvalidInputError."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or index < low:
        raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")
    return index


def generate_training_trajectories(sys, n_traj, box, t_end, dt, forcing_family, seed):
    """Simulate ``n_traj`` forced trajectories from uniform initial conditions.

    Each trajectory gets its own generator derived from ``(seed, index)``,
    which draws its initial condition and then its forcing, so the output does
    not depend on how trajectories are scheduled. All trajectories are
    integrated as the columns of one lockstep RK4 run; for a field that
    computes each column on its own (van der Pol does), every trajectory
    equals its own :func:`simulate` call bit for bit. Returns ``(batch,
    n_divergent)``: one :class:`Trajectory` of the paths that stayed within
    ``DIVERGENCE_LIMIT``, in index order, and the number dropped (with a
    warning) because they left it. No path is copied on its own.
    """
    n_traj = _count(n_traj, "n_traj", 1)
    seed = _count(seed, "seed", 0)
    box = np.asarray(box, dtype=float)
    if box.shape != (sys.state_dim, 2):
        raise InvalidInputError(f"box must be ({sys.state_dim}, 2) of (low, high) pairs")
    with np.errstate(invalid="ignore", over="ignore"):
        width = box[:, 1] - box[:, 0]
    if not (np.isfinite(width) & (width > 0)).all():  # NaN, infinite ends and overflow fail
        raise InvalidInputError("box must be finite with low < high in every row")
    times = _time_grid(sys, t_end, dt)
    if times.size < 2:
        raise InvalidInputError("t_end must cover at least one step")
    x0 = np.empty((sys.state_dim, n_traj))
    inputs = np.empty((sys.input_dim, n_traj, times.size - 1))
    for i in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        x0[:, i] = box[:, 0] + rng.random(sys.state_dim) * width
        inputs[:, i] = forcing_family(rng).evaluate(times[:-1])
    states, steps = _integrate_columns(sys.rhs, x0, inputs, times, dt)
    kept = steps == times.size - 1
    n_divergent = n_traj - int(np.count_nonzero(kept))
    if n_divergent:
        warnings.warn(f"dropped {n_divergent} divergent training trajectories", stacklevel=2)
        states, inputs = states[:, kept], inputs[:, kept]
    return Trajectory(times, states, inputs), n_divergent


def _path_batches(trajectories, dt=None):
    """``(batches, dt)``: the :meth:`Trajectory.as_batch` arrays of each trajectory.

    ``trajectories`` is one :class:`Trajectory` or a sequence of them, each a
    path or a batch. Raises InvalidInputError unless every path has the
    first's state and input dimensions and every step is ``dt`` long
    (default: the first step of the first trajectory that has one) to a
    relative 1e-9.
    """
    trajectories = [trajectories] if isinstance(trajectories, Trajectory) else list(trajectories)
    if dt is None:
        dt = next((float(tr.times[1] - tr.times[0]) for tr in trajectories if tr.n_steps), None)
    else:
        check_positive(dt, "dt")
    for tr in trajectories:
        dims, first = (tr.state_dim, tr.input_dim), (trajectories[0].state_dim, trajectories[0].input_dim)
        if dims != first:
            raise InvalidInputError(f"a trajectory has (state, input) dimensions {dims}, not {first}")
        if tr.n_steps and not np.all(np.abs(np.diff(tr.times) - dt) <= 1e-9 * dt):
            raise InvalidInputError(f"a trajectory's samples are not {dt!r} apart")
    return [tr.as_batch() for tr in trajectories], dt


def _join(arrays):
    """``arrays`` joined along axis 1; a single array is returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=1)


def snapshots_from_trajectories(trajectories, dt, meta=None):
    """The (x_k, x_{k+1}, u_k) columns of every path, path by path.

    ``trajectories`` is one :class:`Trajectory` or a sequence of them, each a
    path or a batch; paths of differing dimensions, or not sampled ``dt``
    apart, raise InvalidInputError.
    """
    batches, _ = _path_batches(trajectories, dt)
    if not batches:
        raise InvalidInputError("need at least one trajectory")
    n, q = batches[0][0].shape[0], batches[0][1].shape[0]
    x = _join([s[..., :-1].reshape(n, -1) for s, _ in batches])
    xp = _join([s[..., 1:].reshape(n, -1) for s, _ in batches])
    u = _join([u.reshape(q, -1) for _, u in batches])
    return SampleSet(x=x, xp=xp, u=u, dt=dt, meta=dict(meta or {}))
