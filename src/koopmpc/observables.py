"""Liftings of plant states: monomial dictionaries and delay coordinates.

Every lifting exposes the same interface, so fitting, rollout, control and
scoring never branch on the kind of lifting:

- ``history_steps``: past steps needed beyond the current sample;
- ``state_dim``: the plant state dimension it lifts from;
- ``coords``: the plant coordinates a model on this lifting recovers;
- ``n_out``: the length ``d`` of a lifted state;
- ``lift_windows(states, inputs)``: lifted states of sample windows held
  time-last, ``states`` of shape ``(n, T)`` or ``(n, M, T)`` and ``inputs``
  of shape ``(q, T-1)`` or ``(q, M, T-1)`` (longer input windows are cut).
  The result holds the lifts of samples ``history_steps .. T-1`` of every
  window, ``(d, T - history_steps)`` or ``(d, M, T - history_steps)``, so
  ``M`` windows lift as the columns of one batch. Windows of the wrong
  shape or length raise;
- ``lift_next(z, x, u)``: overwrites ``z``, ``(d,)`` or ``(d, M)`` and the
  lift of the previous sample, with the lift of the newest sample ``x``
  given ``u``, the input applied since. After ``history_steps + 1`` calls
  from any ``z``, it is ``lift_windows`` of their window, bit for bit. It
  checks no shape, so a closed loop that checks its plant against the
  model once can advance its lifted state every step;
- ``fixed_rows(input_dim)``: the rows of ``A`` and ``B`` in ``z' = A z + B u``
  that the lifting fixes, and the recovery matrix ``C``.

A dictionary's ``lift_windows`` and ``lift_next`` raise on a lift that is
not finite, as that depends on the values. Its powers are repeated products,
so a state lifts to the same bits alone or among any number of columns. A
product whose columns must equal the M = 1 path uses a stacked matvec
(``np.matmul(a, w.T[:, :, None])``), not gemm, whose bits vary with M.
"""

from __future__ import annotations

import itertools
import math
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
    ``history_steps``, ``state_dim``, ``coords``, ``n_out``, ``lift_windows``,
    ``lift_next`` and ``fixed_rows``. A dictionary needs no history, recovers
    every plant coordinate, fixes no row of a model, and ignores the inputs
    it is given.
    """

    n_in: int
    exponents: np.ndarray  # (d, n_in) nonnegative integers, read-only

    def __post_init__(self):
        object.__setattr__(self, "exponents", _exponent_matrix(self.n_in, self.exponents))
        object.__setattr__(self, "_gather", _gather_form(self.exponents))

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

    def lift_next(self, z, x, u=None):
        """Overwrite ``z``, (d,) or (d, M), with the observables of ``x``, (n,) or (n, M); ``u`` is ignored.

        Raises InvalidInputError if an observable is not finite.
        """
        if z.ndim == 1:  # one state on Python floats: the bits of its column in a batch
            values = [*_monomials(self._gather, x.tolist())]
            if not all(map(math.isfinite, values)):
                raise InvalidInputError("dictionary evaluation produced non-finite values")
            z[:] = values
        else:
            self._evaluate(x, out=z)

    def _evaluate(self, cols, out=None):
        """Observables of (n, m) columns -> (d, m), written into ``out`` if given; raises if one is not finite."""
        out = _monomial_rows(self._gather, cols, out)
        if not np.isfinite(out).all():
            raise InvalidInputError("dictionary evaluation produced non-finite values")
        return out

    def lift_windows(self, states, inputs=None):
        """Observables at every sample of (n, [M,] T) windows -> (d, [M,] T), in one (n, M*T) call."""
        s = _columns(self, states)
        return eval_dictionary(self, s.reshape(s.shape[0], -1)).reshape((self.n_out,) + s.shape[1:])

    def fixed_rows(self, input_dim):
        """``(n_free, a, b, c)``: no row is fixed, ``a`` and ``b`` are zero, ``c`` is :func:`recovery_matrix`.

        ``a`` and ``b`` are column-major, the layout of the least-squares
        solution that fills them, by which later products round.
        """
        d = self.n_out
        a, b = np.zeros((d, d), order="F"), np.zeros((d, input_dim), order="F")
        return d, a, b, recovery_matrix(self)


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


def _gather_form(exponents):
    """``(index, top)`` of (d, n) exponents: ``index[i]`` is ``(first, rest)``, the places
    ``exponents[i, j] * n + j`` of ``coords[j] ** exponents[i, j]`` for ``j = 0`` and ``j > 0`` in
    the flat table of powers that :func:`_monomials` builds; ``top`` is the largest exponent."""
    index = exponents * exponents.shape[1] + np.arange(exponents.shape[1])
    return [(row[0], tuple(row[1:])) for row in index.tolist()], int(exponents.max(initial=0))


def _monomials(gather, coords):
    """prod_j coords[j] ** e[i, j] from :func:`_gather_form` of (d, n) exponents ``e``, yielded for i = 0 .. d-1.

    ``coords`` is a sequence of the ``n`` coordinates, as ``rk4_update``
    takes them: Python floats for one state, rows for a batch. Powers are
    repeated products, ``x ** p = x ** (p - 1) * x``, in a table that starts
    with a ``1.0`` per coordinate; each monomial multiplies its factors from
    that table left to right. An IEEE product rounds alike for a float and
    in every loop numpy picks, so a state has the same bits alone or among
    any number of columns. A monomial of degree 0 is the float ``1.0``.
    """
    index, top = gather
    n = len(coords)
    table = [1.0] * n  # entry p * n + j: coords[j] ** p
    for _ in range(top):
        table += [power * x for power, x in zip(table[-n:], coords)]
    for first, rest in index:
        value = table[first]
        for k in rest:
            value = value * table[k]
        yield value


def _monomial_rows(gather, cols, out=None):
    """:func:`_monomials` of the rows of (n, m) ``cols``, written into the rows of ``out``, (d, m), made if not given."""
    if out is None:
        out = np.empty((len(gather[0]), cols.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, value in zip(out, _monomials(gather, list(cols))):
            row[...] = value
    return out


def eval_dictionary(dic, x):
    """Apply all observables columnwise; (n_in,) -> (d,) and (n_in, m) -> (d, m).

    Raises InvalidInputError if ``x`` has another row count or an observable
    is not finite.
    """
    x = _columns(dic, x)
    out = dic._evaluate(x.reshape(x.shape[0], -1))
    return out.reshape(out.shape[:1] + x.shape[1:])


def eval_gradients(dic, x):
    """Stack all observable gradients at states x: (d, n_in) or (d, n_in, m)."""
    x = _columns(dic, x)
    cols = x[:, None] if x.ndim == 1 else x
    e = dic.exponents
    out = np.zeros((dic.n_out, dic.n_in, cols.shape[1]))
    for j in range(dic.n_in):
        rows = e[:, j] != 0
        reduced = e[rows] - (np.arange(dic.n_in) == j)
        out[rows, j] = e[rows, j, None] * _monomial_rows(_gather_form(reduced), cols)
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
    def n_out(self):
        """Length of a lifted state: ``depth`` states over ``coords`` and ``history_steps`` past inputs."""
        return self.z_dim + self.history_steps * self.input_dim

    @property
    def history_steps(self):
        """Past steps needed (beyond the current sample) to build a lifted state."""
        return self.depth - 1

    def lift_windows(self, states, inputs):
        """Hankel columns of (n, [M,] T) windows: column k lifts sample ``history_steps + k``.

        Blocks are stacked newest sample first; the result is
        (n_out, [M,] T - history_steps). A window of ``T`` samples needs
        ``T > history_steps`` and, when the lifting stores past inputs
        (``history_steps`` and ``input_dim`` both nonzero), ``T - 1`` inputs
        per window; otherwise ``inputs`` are ignored.
        """
        s = np.asarray(states, dtype=float)
        if s.ndim < 2 or s.shape[0] != self.state_dim:
            raise InvalidInputError(f"states of shape {s.shape} do not have {self.state_dim} rows")
        h, n_samples = self.history_steps, s.shape[-1]
        if n_samples <= h:
            raise InsufficientDataError(
                f"a window of {n_samples} samples is too short for depth {self.depth}"
            )
        m, s = n_samples - h, s[list(self.coords)]
        blocks = [s[..., h - j : h - j + m] for j in range(self.depth)]
        if h and self.input_dim:
            if inputs is None:
                raise MissingHistoryError(f"need {n_samples - 1} inputs for a window of {n_samples} samples")
            u = np.asarray(inputs, dtype=float)
            if u.ndim != s.ndim or u.shape[0] != self.input_dim:
                raise InvalidInputError(f"inputs of shape {u.shape} do not have {self.input_dim} rows")
            if u.shape[-1] < n_samples - 1:
                raise MissingHistoryError(f"need {n_samples - 1} inputs for a window of {n_samples} samples")
            blocks += [u[..., h - j : h - j + m] for j in range(1, self.depth)]
        return np.concatenate(blocks)

    def lift_next(self, z, x, u):
        """Overwrite ``z``, (n_out,) or (n_out, M), with the lift one sample on.

        The stored blocks move one slot older, the copy that :meth:`fixed_rows`
        encodes; ``x[coords]`` and ``u`` (if inputs are stored) fill the newest.
        """
        n_e, z_dim, q, dim = self.n_embed, self.z_dim, self.input_dim, self.n_out
        z[n_e:z_dim] = z[: z_dim - n_e]
        if dim > z_dim:
            z[z_dim + q :] = z[z_dim : dim - q]
            z[z_dim : z_dim + q] = u
        z[:n_e] = x[list(self.coords)]

    def fixed_rows(self, input_dim):
        """``(n_free, a, b, c)``: the ``n_embed`` newest-sample rows are free (zero), the rest fixed.

        The fixed rows shift the stored states and inputs one slot older and
        put ``u_k`` in the newest stored input, so a model is causal by
        construction; ``c = [I 0]`` reads the newest sample.
        """
        if input_dim != self.input_dim:
            raise InvalidInputError(f"{input_dim} inputs do not match the lifting's {self.input_dim}")
        n_e, z_dim, q, dim = self.n_embed, self.z_dim, self.input_dim, self.n_out
        a, b = np.zeros((dim, dim)), np.zeros((dim, q))
        a[n_e:z_dim, : z_dim - n_e] = np.eye(z_dim - n_e)
        if self.history_steps:
            b[z_dim : z_dim + q] = np.eye(q)
            a[z_dim + q :, z_dim : dim - q] = np.eye(dim - z_dim - q)
        return n_e, a, b, np.eye(n_e, dim)
