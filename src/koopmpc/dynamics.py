"""Controlled plants, fixed-step integration, and training-data generation."""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, InsufficientDataError, InvalidInputError

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class ControlSystem:
    """A controlled dynamical system.

    For ``kind == "flow"`` the callable ``rhs(x, u, t)`` returns the state
    derivative coordinate by coordinate: ``x`` is a sequence of the ``n``
    state coordinates and ``u`` one of the ``q`` inputs, each a Python float
    for one state or a row of ``m`` values for ``m`` states (an (n, m) array
    is such a sequence), and ``rhs`` returns the ``n`` derivatives as a
    sequence of the same kind. One :func:`rk4_update` thus steps one state on
    floats and a batch on rows. For ``kind == "map"`` ``rhs`` returns the
    next state directly, time is measured in steps, and ``x`` is an (n, m)
    array with ``u`` of matching trailing shape.
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

    x1' = x2, x2' = mu * (1 - x1^2) * x2 - x1 + u. It follows the coordinate
    protocol of :class:`ControlSystem`: two floats or two rows in, the pair
    ``(x1', x2')`` of the same kind out.
    """

    def __init__(self, mu):
        self.mu = float(mu)

    def __call__(self, x, u, t):
        # mu * (1 - x1 x1) x2 - x1 + u in that order, each step into the first
        # temporary: floats rebind, rows are written in place.
        x1, x2 = x
        f = x1 * x1
        f = 1.0 - f
        f *= self.mu
        f *= x2
        f -= x1
        f += u[0]
        return x2, f


def make_vanderpol(mu=0.2):
    """Two-state, one-input van der Pol oscillator with damping ``mu``."""
    if not np.isfinite(mu):
        raise InvalidInputError("mu must be finite")
    return ControlSystem(state_dim=2, input_dim=1, rhs=VanDerPolRhs(mu))


def check_positive(value, name):
    """Raise InvalidInputError naming ``name`` unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")


_SHAPE_RULE = "each derivative must be a float or an array of its state coordinate's shape"


def rk4_update(rhs, x, u, t, dt):
    """The classical 4th-order Runge-Kutta update of ``x`` with ``u`` held constant.

    ``x`` and ``u`` are sequences of coordinates, as :class:`ControlSystem`
    gives them to ``rhs``: Python floats for one state, rows for a batch.
    Each stage is built coordinate by coordinate, ``x + (dt / 2) * k`` and
    ``x + dt * k``, and the update is ``x + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)``
    in that order, so floats and rows give the same bits, NaN payloads aside:
    NaN positions agree, but a NaN's sign and payload may not. Each expression is
    taken in augmented form into its first temporary (``v = s * k; v += x``):
    a float rebinds and a row is written in place, with the bits of the plain
    expression, and ``x``, ``u`` and the arrays the field returned are never
    written. A derivative is a float or an array of its coordinate's shape
    and dtype; a smaller one cannot take the row's sum in place and raises
    InvalidInputError. Returns the list of the ``n`` new coordinates, with no
    checks: a batch may carry non-finite columns through.
    """
    h = 0.5 * dt
    k1 = rhs(x, u, t)
    k2 = rhs(_stage(x, k1, h), u, t + h)
    k3 = rhs(_stage(x, k2, h), u, t + h)
    k4 = rhs(_stage(x, k3, dt), u, t + dt)
    c = dt / 6.0
    out = []
    try:
        for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4):
            v = 2.0 * b2
            v += b1
            w = 2.0 * b3
            v += w
            v += b4
            v *= c
            v += a
            out.append(v)
    except ValueError as err:
        raise InvalidInputError(f"{_SHAPE_RULE}: {err}") from err
    return out


def _stage(x, k, s):
    """The RK4 stage ``[a + s * b for a, b in zip(x, k)]``, each sum taken into ``s * b``."""
    y = []
    try:
        for a, b in zip(x, k):
            v = s * b
            v += a
            y.append(v)
    except ValueError as err:  # a derivative smaller than its row cannot take the row's sum
        raise InvalidInputError(f"{_SHAPE_RULE}: {err}") from err
    return y


def rk4_step(sys, x, u, t, dt):
    """One classical 4th-order Runge-Kutta step with ``u`` held constant.

    A state of shape (n,) is stepped on the Python floats of ``x.tolist()``
    and ``u.tolist()``, and an (n, m) state on its rows, through the one
    :func:`rk4_update`. Returns the new state as an array of ``x``'s shape.
    Raises DivergenceError when any component of it is not within
    ``DIVERGENCE_LIMIT`` in magnitude, NaN and infinity included, and when
    the field's float arithmetic overflows or divides by zero (where arrays
    would carry an inf or a NaN).
    """
    if sys.kind != "flow":
        raise InvalidInputError("rk4_step requires a continuous-time system")
    check_positive(dt, "dt")
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    try:
        if x.ndim == 1:
            out = rk4_update(sys.rhs, x.tolist(), u.tolist(), t, dt)
            within = all(abs(v) <= DIVERGENCE_LIMIT for v in out)  # NaN fails too
        else:
            out = rk4_update(sys.rhs, x, u, t, dt)
            within = all((abs(row) <= DIVERGENCE_LIMIT).all() for row in out)
    except (OverflowError, ZeroDivisionError):  # e.g. 1e200 ** 2 or 1.0 / 0.0 on floats
        within = False
    if not within:
        raise DivergenceError(f"state left |x| <= {DIVERGENCE_LIMIT:.0e} at t={t + dt:.4g}")
    return np.array(out, dtype=float)


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
            x = rk4_update(rhs, x, inputs[:, :, s], times[s], dt)  # rows, kept as a list
            states[:, :, s + 1] = x
            left = alive & ~(np.abs(states[:, :, s + 1]) <= DIVERGENCE_LIMIT).all(axis=0)
            if left.any():
                steps[left] = s
                alive &= ~left
                if not alive.any():
                    break
    return states, steps


def _forcing_inputs(forcing, times, input_dim):
    """``forcing.evaluate(times)``, which must be one row per plant input; none is broadcast."""
    u = np.asarray(forcing.evaluate(times), dtype=float)
    if u.shape != (input_dim, times.size):
        raise InvalidInputError(
            f"the forcing gives inputs of shape {u.shape} at {times.size} times,"
            f" not one row per input of the plant's {input_dim}"
        )
    return u


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
    inputs[:, 0] = _forcing_inputs(forcing, times[:-1], sys.input_dim)
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


def _index_streams(seed, n):
    """Yield the generator of each stream ``(seed, k)``, ``k = 0 .. n-1``, seeded in one pass.

    The ``k``-th generator draws exactly what
    ``np.random.default_rng(np.random.SeedSequence([seed, k]))`` draws. It is
    one :class:`numpy.random.Generator`, reused: each yield sets its PCG64 to
    the next stream's seeded state, so a generator is valid only until the
    next one is yielded. ``seed`` is an int >= 0 (several 32-bit words from
    2**32 on) and ``n`` an int below 2**32.

    This is O'Neill's ``seed_seq`` as numpy's SeedSequence runs it, over every
    ``k`` at once in uint32 arithmetic: the entropy words (the seed's, least
    significant first, then ``k``) are hashed into a 4-word pool and mixed,
    the pool gives ``generate_state(4, uint64)``, and PCG64 seeds its 128-bit
    state and increment from those words. Only the last step, on Python
    ints, and the state setter run once per stream, in place of numpy's
    Python-level seeding per generator.
    """
    if n >= 2**32:
        raise InvalidInputError(f"at most 2**32 streams are indexed by one word, got {n}")
    words = []
    while True:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
        if not seed:
            break
    entropy = np.zeros((max(len(words) + 1, 4), n), dtype=np.uint32)  # a short one is padded with zeros
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(n, dtype=np.uint32)

    def constants(first, mult, m):  # first, first * mult, ... (mod 2**32): m + 1 of them, as a column
        c = [first]
        for _ in range(m):
            c.append(c[-1] * mult & 0xFFFFFFFF)
        return np.array(c, dtype=np.uint32)[:, None]

    def hashed(v, table, first, m):  # hash call c XORs table[c] and multiplies by table[c + 1]
        v = (v ^ table[first : first + m]) * table[first + 1 : first + m + 1]
        return v ^ v >> 16

    def mixed(x, y):
        v = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return v ^ v >> 16

    table = constants(0x43B0D7E5, 0x931E8875, 16 + 4 * (entropy.shape[0] - 4))
    pool = hashed(entropy[:4], table, 0, 4)
    call = 4
    for src in range(4):  # every pool word into the other three, which leaves pool[src] as it is
        dst = [d for d in range(4) if d != src]
        pool[dst] = mixed(pool[dst], hashed(pool[src], table, call, 3))
        call += 3
    for word in entropy[4:]:  # entropy beyond the pool mixes into every pool word
        pool = mixed(pool, hashed(word, table, call, 4))
        call += 4
    # generate_state(4, uint64): the same hash of the cycled pool, with constants of its own.
    state = hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], constants(0x8B51F9DD, 0x58F38DED, 8), 0, 8)
    state = state.astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = (state[0::2] | state[1::2] << np.uint64(32)).tolist()
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    value = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    mask, mult = (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1; step from 0, add initstate, step.
        inc = ((c << 65) | (d << 1) | 1) & mask
        pcg["state"] = ((inc + ((a << 64) | b)) * mult + inc) & mask
        pcg["inc"] = inc
        bits.state = value
        yield rng


def generate_training_trajectories(sys, n_traj, box, t_end, dt, forcing_family, seed):
    """Simulate ``n_traj`` forced trajectories from uniform initial conditions.

    Trajectory ``i`` draws from the stream ``(seed, i)`` of
    :func:`_index_streams`, the generator of
    ``default_rng(SeedSequence([seed, i]))``: first its initial condition,
    into one (n_traj, n) buffer that is mapped into ``box`` once, then its
    forcing, which ``forcing_family(rng)`` must draw before it returns. The
    output thus does not depend on how trajectories are scheduled. Each
    forcing gives one row per plant input (none is broadcast; else
    InvalidInputError). All trajectories are
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
    r = np.empty((n_traj, sys.state_dim))
    inputs = np.empty((sys.input_dim, n_traj, times.size - 1))
    for i, rng in enumerate(_index_streams(seed, n_traj)):
        rng.random(out=r[i])
        inputs[:, i] = _forcing_inputs(forcing_family(rng), times[:-1], sys.input_dim)
    r *= width
    r += box[:, 0]
    states, steps = _integrate_columns(sys.rhs, np.ascontiguousarray(r.T), inputs, times, dt)
    kept = steps == times.size - 1
    n_divergent = n_traj - int(np.count_nonzero(kept))
    if n_divergent:
        warnings.warn(f"dropped {n_divergent} divergent training trajectories", stacklevel=2)
        states, inputs = states[:, kept], inputs[:, kept]
    return Trajectory(times, states, inputs), n_divergent


def _first_dims(trajectories):
    """``(state_dim, input_dim)`` of the first of ``trajectories``, one :class:`Trajectory` or a sequence.

    Raises InsufficientDataError if there is none.
    """
    if isinstance(trajectories, Trajectory):
        return trajectories.state_dim, trajectories.input_dim
    if not len(trajectories):
        raise InsufficientDataError("need at least one trajectory")
    return trajectories[0].state_dim, trajectories[0].input_dim


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
