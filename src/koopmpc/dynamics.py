"""Controlled plants, fixed-step integration, and training-data generation."""

from __future__ import annotations

import hashlib
import math
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
    """Forced van der Pol field in first-order form (picklable callable).

    x1' = x2, x2' = mu * (1 - x1^2) * x2 - x1 + u.
    """

    def __init__(self, mu):
        self.mu = float(mu)

    def __call__(self, x, u, t):
        x1, x2 = x[0], x[1]
        return np.stack([x2, self.mu * (1.0 - x1 * x1) * x2 - x1 + u[0]])


def make_vanderpol(mu=0.2):
    """Two-state, one-input van der Pol oscillator with damping ``mu``."""
    if not np.isfinite(mu):
        raise InvalidInputError("mu must be finite")
    return ControlSystem(state_dim=2, input_dim=1, rhs=VanDerPolRhs(mu))


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
    """One classical 4th-order Runge-Kutta step with ``u`` held constant."""
    if sys.kind != "flow":
        raise InvalidInputError("rk4_step requires a continuous-time system")
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    out = rk4_update(sys.rhs, np.asarray(x, dtype=float), np.asarray(u, dtype=float), t, dt)
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"integration produced non-finite state at t={t}")
    return out


@dataclass
class Trajectory:
    """Sampled path of a controlled system.

    ``inputs`` holds one value per step (zero-order hold over
    ``[t_k, t_{k+1})``), so it is one column shorter than ``states``.
    """

    times: np.ndarray   # (k+1,)
    states: np.ndarray  # (n, k+1)
    inputs: np.ndarray  # (q, k)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.states = np.asarray(self.states, dtype=float)
        self.inputs = np.asarray(self.inputs, dtype=float)
        if self.states.ndim != 2 or self.states.shape[1] != self.times.size:
            raise InvalidInputError("states must be (n, len(times))")
        if self.inputs.ndim != 2:
            raise InvalidInputError("inputs must be a 2-D array")
        if self.inputs.shape[1] == self.times.size:
            self.inputs = self.inputs[:, :-1]
        if self.inputs.shape[1] != max(self.times.size - 1, 0):
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


@dataclass
class SampleSet:
    """Snapshot triples (x_k, x_k', u_k) sampled ``dt`` apart, stored columnwise."""

    x: np.ndarray   # (n, m)
    xp: np.ndarray  # (n, m)
    u: np.ndarray   # (q, m)
    dt: float
    t: np.ndarray | None = None  # (m,) sample times, if known
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xp = np.asarray(self.xp, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.x.ndim != 2 or self.xp.shape != self.x.shape:
            raise InvalidInputError("x and xp must be matching (n, m) arrays")
        if self.u.ndim != 2 or self.u.shape[1] != self.x.shape[1]:
            raise InvalidInputError("u must be (q, m) with m matching x")
        if self.dt <= 0:
            raise InvalidInputError("dt must be positive")
        if self.t is not None:
            self.t = np.asarray(self.t, dtype=float).reshape(-1)
            if self.t.size != self.x.shape[1]:
                raise InvalidInputError("t must have one entry per column")

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
    """Scalar or vector input signal evaluable at any t >= 0."""

    kind: str  # "product-sines" | "constant" | "zero" | "piecewise-constant-sequence"
    input_dim: int = 1
    amplitude: float = 0.0
    omega1: float = 0.0
    omega2: float = 0.0
    values: np.ndarray | None = None
    dt: float | None = None

    @classmethod
    def product_sines(cls, amplitude, omega1, omega2):
        """u(t) = amplitude * sin(|omega1| t) * sin(|omega2| t), single input."""
        return cls(kind="product-sines", input_dim=1, amplitude=float(amplitude),
                   omega1=float(omega1), omega2=float(omega2))

    @classmethod
    def constant(cls, values):
        v = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(kind="constant", input_dim=v.size, values=v)

    @classmethod
    def zero(cls, input_dim=1):
        return cls(kind="zero", input_dim=int(input_dim))

    @classmethod
    def piecewise(cls, values, dt):
        v = np.atleast_2d(np.asarray(values, dtype=float))
        return cls(kind="piecewise-constant-sequence", input_dim=v.shape[0],
                   values=v, dt=float(dt))

    def evaluate(self, t):
        if self.kind == "product-sines":
            return np.array(
                [self.amplitude * math.sin(abs(self.omega1) * t) * math.sin(abs(self.omega2) * t)]
            )
        if self.kind == "constant":
            return self.values.copy()
        if self.kind == "zero":
            return np.zeros(self.input_dim)
        if self.kind == "piecewise-constant-sequence":
            k = min(int(math.floor(t / self.dt + 1e-9)), self.values.shape[1] - 1)
            return self.values[:, max(k, 0)].copy()
        raise InvalidInputError(f"unknown forcing kind {self.kind!r}")


def product_sines_family(amplitude=5.0, omega_std=10.0):
    """Family of product-of-sines signals with frequencies drawn N(0, omega_std^2).

    Returns a callable taking an ``numpy.random.Generator`` and producing one
    ForcingSignal, for use with :func:`sample_training_set`.
    """

    def make(rng):
        w = rng.normal(0.0, omega_std, size=2)
        return ForcingSignal.product_sines(amplitude, w[0], w[1])

    return make


def _n_steps(t_end, dt):
    return int(math.floor(t_end / dt + 1e-9))


def simulate(sys, x0, forcing, t_end, dt):
    """Integrate a flow system with zero-order-hold inputs sampled at step starts.

    Raises DivergenceError (carrying the partial trajectory) as soon as any
    state component exceeds ``DIVERGENCE_LIMIT`` in magnitude.
    """
    if sys.kind != "flow":
        raise InvalidInputError("simulate requires a continuous-time system")
    if t_end <= 0 or dt <= 0:
        raise InvalidInputError("t_end and dt must be positive")
    n_steps = _n_steps(t_end, dt)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != sys.state_dim:
        raise InvalidInputError("x0 length must match the system state dimension")
    times = np.arange(n_steps + 1) * dt
    states = np.empty((sys.state_dim, n_steps + 1))
    inputs = np.empty((sys.input_dim, n_steps))
    states[:, 0] = x
    for k in range(n_steps):
        u = np.asarray(forcing.evaluate(times[k]), dtype=float).reshape(-1)
        inputs[:, k] = u
        try:
            x = rk4_step(sys, x, u, times[k], dt)
        except DivergenceError as err:
            partial = Trajectory(times[: k + 1], states[:, : k + 1], inputs[:, :k])
            raise DivergenceError(str(err), partial=partial) from None
        if np.max(np.abs(x)) > DIVERGENCE_LIMIT:
            partial = Trajectory(times[: k + 1], states[:, : k + 1], inputs[:, :k])
            raise DivergenceError(
                f"state magnitude exceeded {DIVERGENCE_LIMIT:.0e} at t={times[k + 1]:.4g}",
                partial=partial,
            )
        states[:, k + 1] = x
    return Trajectory(times, states, inputs)


def generate_training_trajectories(sys, n_traj, box, t_end, dt, forcing_family, seed):
    """Simulate ``n_traj`` forced trajectories from uniform initial conditions.

    Each trajectory gets its own generator derived from ``(seed, index)``, so
    the output is identical no matter how trajectories are scheduled.
    Divergent trajectories are dropped; the count is returned alongside.
    """
    if n_traj < 1:
        raise InvalidInputError("n_traj must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    box = np.asarray(box, dtype=float)
    if box.shape != (sys.state_dim, 2):
        raise InvalidInputError(f"box must be ({sys.state_dim}, 2) of (low, high) pairs")
    trajectories = []
    n_divergent = 0
    for i in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        x0 = box[:, 0] + rng.random(sys.state_dim) * (box[:, 1] - box[:, 0])
        forcing = forcing_family(rng)
        try:
            trajectories.append(simulate(sys, x0, forcing, t_end, dt))
        except DivergenceError:
            n_divergent += 1
    if n_divergent:
        warnings.warn(f"dropped {n_divergent} divergent training trajectories", stacklevel=2)
    return trajectories, n_divergent


def snapshots_from_trajectories(trajectories, dt, meta=None):
    """Concatenate (x_k, x_{k+1}, u_k) columns of several trajectories."""
    trajectories = list(trajectories)
    if not trajectories:
        raise InvalidInputError("need at least one trajectory")
    x = np.hstack([tr.states[:, :-1] for tr in trajectories])
    xp = np.hstack([tr.states[:, 1:] for tr in trajectories])
    u = np.hstack([tr.inputs for tr in trajectories])
    t = np.concatenate([tr.times[:-1] for tr in trajectories])
    return SampleSet(x=x, xp=xp, u=u, dt=dt, t=t, meta=dict(meta or {}))


def sample_training_set(sys, n_traj, box, t_end, dt, forcing_family, seed):
    """Generate a training SampleSet of forced-trajectory snapshot pairs."""
    trajectories, n_divergent = generate_training_trajectories(
        sys, n_traj, box, t_end, dt, forcing_family, seed
    )
    if not trajectories:
        raise DivergenceError("all training trajectories diverged")
    meta = {
        "seed": int(seed),
        "n_trajectories": int(n_traj),
        "n_divergent": int(n_divergent),
        "t_end": float(t_end),
        "box": np.asarray(box, dtype=float).tolist(),
    }
    return snapshots_from_trajectories(trajectories, dt, meta=meta)
