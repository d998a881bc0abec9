"""Liftings of plant states: monomial dictionaries and delay coordinates.

Every lifting exposes the same interface, so fitting, rollout, control and
scoring never branch on the kind of lifting:

- ``history_steps``: past steps needed beyond the current sample;
- ``state_dim``: the plant state dimension it lifts from;
- ``coords``: the plant coordinates a model on this lifting recovers;
- ``lift_windows(states, inputs)``: lifted states of sample windows held
  time-last, ``states`` of shape ``(n, T)`` or ``(n, M, T)`` and ``inputs``
  of shape ``(q, T-1)`` or ``(q, M, T-1)`` (longer input windows are cut).
  The result holds the lifts of samples ``history_steps .. T-1`` of every
  window, ``(d, T - history_steps)`` or ``(d, M, T - history_steps)``, so
  ``M`` windows lift as the columns of one batch.

``lift_windows`` is ``check_windows`` followed by ``lift_checked``:
``check_windows(states, inputs)`` raises on windows of the wrong shape or
length and returns them as float arrays, and ``lift_checked`` is the
arithmetic alone. A caller that lifts many windows of one checked buffer,
such as a closed loop lifting one window per step, checks the buffer once
and calls ``lift_checked`` on its slices. ``lift_checked`` still raises on
a lift that is not finite, as that depends on the values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import _count
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    MissingHistoryError,
    UnsupportedDictionaryError,
)


def monomial_label(exponents, prefix="x"):
    parts = []
    for i, e in enumerate(exponents):
        if e == 0:
            continue
        parts.append(f"{prefix}{i + 1}" if e == 1 else f"{prefix}{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _exponent_matrix(n_in, exponents):
    """Validated read-only (d, n_in) matrix of nonnegative integer exponents."""
    if not isinstance(n_in, (int, np.integer)) or isinstance(n_in, bool) or n_in < 1:
        raise InvalidInputError(f"n_in must be a positive integer, got {n_in!r}")
    try:
        e = np.array(exponents)
    except ValueError:
        raise InvalidInputError("exponent rows must all have the same length") from None
    if e.dtype.kind not in "iu":
        raise InvalidInputError(f"exponents must be integers, got dtype {e.dtype}")
    if e.ndim != 2 or e.shape[0] == 0 or e.shape[1] != n_in:
        raise InvalidInputError(
            f"exponents must be a nonempty (d, {n_in}) matrix, got shape {e.shape}"
        )
    if np.any(e < 0):
        raise InvalidInputError("exponents must be nonnegative")
    e = e.astype(int, copy=False)
    e.flags.writeable = False
    return e


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Monomial observables prod_j x_j ** exponents[i, j], one per row.

    Implements the lifting interface shared with :class:`DelayCoordinates`:
    ``history_steps``, ``state_dim``, ``coords`` and ``lift_windows`` with
    its halves ``check_windows`` and ``lift_checked``. A dictionary needs
    no history, recovers every plant coordinate, and ignores the inputs of
    ``lift_windows``.
    """

    n_in: int
    exponents: np.ndarray  # (d, n_in) nonnegative integers, read-only

    def __post_init__(self):
        object.__setattr__(self, "exponents", _exponent_matrix(self.n_in, self.exponents))

    @property
    def n_out(self):
        return self.exponents.shape[0]

    @property
    def labels(self):
        return tuple(monomial_label(row) for row in self.exponents.tolist())

    @property
    def history_steps(self):
        return 0

    @property
    def state_dim(self):
        return self.n_in

    @property
    def coords(self):
        return tuple(range(self.n_in))

    def check_windows(self, states, inputs=None):
        """``states`` as a float array with ``n_in`` rows; ``inputs`` are ignored."""
        return _columns(self, states), inputs

    def lift_checked(self, states, inputs=None):
        """Observables at every sample of checked (n, [M,] T) windows -> (d, [M,] T).

        Raises InvalidInputError if an observable is not finite.
        """
        flat = states.reshape(states.shape[0], -1)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _monomials(self.exponents, flat)
        if not np.isfinite(out).all():
            raise InvalidInputError("dictionary evaluation produced non-finite values")
        return out.reshape(out.shape[:1] + states.shape[1:])

    def lift_windows(self, states, inputs=None):
        """Observables at every sample of (n, [M,] T) windows -> (d, [M,] T)."""
        return eval_dictionary(self, states)


def monomials_dictionary(n, max_order):
    """All C(n + max_order, n) - 1 monomials of total degree 1..max_order in graded-lex order.

    The n linear monomials (the state coordinates) come first, as
    :func:`recovery_matrix` requires.
    """
    n, max_order = _count(n, "n", 1), _count(max_order, "max_order", 1)
    rows = [
        np.bincount(combo, minlength=n)
        for degree in range(1, max_order + 1)
        for combo in itertools.combinations_with_replacement(range(n), degree)
    ]
    return Dictionary(n, np.stack(rows))


def identity_dictionary(n):
    """The n state coordinates themselves (linear monomials)."""
    return monomials_dictionary(n, 1)


def _columns(dic, x):
    """``x`` as a float array of ``dic.n_in`` rows (a vector stays a vector)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[0] != dic.n_in:
        raise InvalidInputError(f"state of shape {x.shape} does not have n_in = {dic.n_in} rows")
    return x


def _monomials(exponents, cols):
    """prod_j cols[j] ** exponents[:, j]: (d, n) exponents, (n, m) columns -> (d, m)."""
    return np.multiply.reduce(cols[None, :, :] ** exponents[:, :, None], axis=1)


def eval_dictionary(dic, x):
    """Apply all observables columnwise; (n_in,) -> (d,) and (n_in, m) -> (d, m).

    Raises InvalidInputError if ``x`` has another row count or an observable
    is not finite.
    """
    return dic.lift_checked(*dic.check_windows(x))


def eval_gradients(dic, x):
    """Stack all observable gradients at states x: (d, n_in) or (d, n_in, m)."""
    x = _columns(dic, x)
    cols = x[:, None] if x.ndim == 1 else x
    e = dic.exponents
    out = np.zeros((dic.n_out, dic.n_in, cols.shape[1]))
    for j in range(dic.n_in):
        rows = e[:, j] != 0
        reduced = e[rows]
        reduced[:, j] -= 1
        out[rows, j] = e[rows, j, None] * _monomials(reduced, cols)
    return out[:, :, 0] if np.ndim(x) == 1 else out


def recovery_matrix(dic):
    """Selector C with C @ f(x) = x for dictionaries led by the state coordinates."""
    n, d = dic.n_in, dic.n_out
    if d < n:
        raise UnsupportedDictionaryError("dictionary has fewer observables than state coordinates")
    if not np.array_equal(dic.exponents[:n], np.eye(n, dtype=int)):
        raise UnsupportedDictionaryError(
            "dictionary does not start with the identity state coordinates"
        )
    return np.hstack([np.eye(n), np.zeros((n, d - n))])


def _coordinate_tuple(coords, state_dim):
    """Validated nonempty tuple of plant coordinates, integers in [0, state_dim)."""
    try:
        c = np.array(coords)
    except ValueError:
        c = None
    if (
        c is None
        or c.dtype.kind not in "iu"
        or c.ndim != 1
        or c.size == 0
        or np.any(c < 0)
        or np.any(c >= state_dim)
    ):
        raise InvalidInputError(
            f"coords {coords!r} must be a nonempty list of integers in [0, {state_dim})"
        )
    return tuple(int(i) for i in c)


@dataclass(frozen=True)
class DelayCoordinates:
    """Input-augmented delay lifting [x_k, ..., x_{k-depth+1}, u_{k-1}, ..., u_{k-depth+1}].

    States and inputs are stacked ``depth`` samples deep, one step apart,
    newest first: ``depth`` states and ``depth - 1`` past inputs. States are
    taken over ``coords`` only, a nonempty sequence of integers in
    ``[0, state_dim)``. ``depth`` and ``state_dim`` are integers >= 1 and
    ``input_dim`` an integer >= 0.
    """

    depth: int
    coords: tuple
    state_dim: int
    input_dim: int

    def __post_init__(self):
        for name, low in (("depth", 1), ("state_dim", 1), ("input_dim", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, low))
        object.__setattr__(self, "coords", _coordinate_tuple(self.coords, self.state_dim))

    @property
    def n_embed(self):
        return len(self.coords)

    @property
    def z_dim(self):
        return self.depth * self.n_embed

    @property
    def aug_dim(self):
        return self.z_dim + self.history_steps * self.input_dim

    @property
    def history_steps(self):
        """Past steps needed (beyond the current sample) to build a lifted state."""
        return self.depth - 1

    def check_windows(self, states, inputs):
        """``states`` and ``inputs`` as float arrays of windows this lifting can lift.

        A window of ``T`` samples needs ``T > history_steps`` and, when the
        lifting stores past inputs (``history_steps`` and ``input_dim`` both
        nonzero), ``T - 1`` inputs per window; otherwise ``inputs`` are
        ignored.
        """
        s = np.asarray(states, dtype=float)
        if s.ndim < 2 or s.shape[0] != self.state_dim:
            raise InvalidInputError(f"states of shape {s.shape} do not have {self.state_dim} rows")
        n_samples = s.shape[-1]
        if n_samples <= self.history_steps:
            raise InsufficientDataError(
                f"a window of {n_samples} samples is too short for depth {self.depth}"
            )
        if not (self.history_steps and self.input_dim):
            return s, inputs
        if inputs is None:
            raise MissingHistoryError(f"need {n_samples - 1} inputs for a window of {n_samples} samples")
        u = np.asarray(inputs, dtype=float)
        if u.ndim != s.ndim or u.shape[0] != self.input_dim:
            raise InvalidInputError(f"inputs of shape {u.shape} do not have {self.input_dim} rows")
        if u.shape[-1] < n_samples - 1:
            raise MissingHistoryError(f"need {n_samples - 1} inputs for a window of {n_samples} samples")
        return s, u

    def lift_checked(self, states, inputs):
        """Hankel columns of checked (n, [M,] T) windows: column k lifts sample ``history_steps + k``.

        Blocks are stacked newest sample first; the result is
        (aug_dim, [M,] T - history_steps).
        """
        h = self.history_steps
        m = states.shape[-1] - h
        s = states[list(self.coords)]
        blocks = [s[..., h - j : h - j + m] for j in range(self.depth)]
        if self.input_dim:
            blocks += [inputs[..., h - j : h - j + m] for j in range(1, self.depth)]
        return np.concatenate(blocks)

    def lift_windows(self, states, inputs):
        """:meth:`lift_checked` of the windows :meth:`check_windows` accepts."""
        return self.lift_checked(*self.check_windows(states, inputs))
