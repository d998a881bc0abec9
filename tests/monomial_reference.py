"""The monomial expressions the gather form is tested against.

:func:`product_monomials` is the gather form's arithmetic in plain Python
floats: every power a chain of products, every monomial its factors
multiplied in coordinate order. :func:`reference_monomials` is the per-factor
``**`` expression the dictionaries evaluated before their powers became
products: every factor ``cols[j] ** exponents[i, j]`` its own power, one
(d, n, m) broadcast multiplied along ``n``. :class:`ReferenceDictionary` is a
monomial lifting evaluated by that expression, for fits and closed loops that
must not run the package's lift.
"""

import math
from dataclasses import dataclass

import numpy as np


def product_monomials(exponents, cols):
    """prod_j cols[j] ** exponents[:, j] with ``x ** p = ((1.0 * x) * x) ...``: (d, n) exponents, (n, m) columns -> (d, m)."""
    out, rows = np.empty((exponents.shape[0], cols.shape[1])), exponents.tolist()
    for k, col in enumerate(np.asarray(cols, dtype=float).T.tolist()):
        for i, row in enumerate(rows):
            factors = [math.prod([x] * p, start=1.0) for x, p in zip(col, row)]
            out[i, k] = math.prod(factors[1:], start=factors[0])
    return out


def reference_monomials(exponents, cols):
    """prod_j cols[j] ** exponents[:, j]: (d, n) exponents, (n, m) columns -> (d, m)."""
    return np.multiply.reduce(cols[None, :, :] ** exponents[:, :, None], axis=1)


@dataclass(frozen=True, eq=False)
class ReferenceDictionary:
    """The lifting of a dictionary's ``exponents`` by :func:`reference_monomials`: ``lift_windows`` only."""

    exponents: np.ndarray  # (d, n)

    n_in = state_dim = property(lambda self: self.exponents.shape[1])
    n_out = property(lambda self: self.exponents.shape[0])
    coords = property(lambda self: tuple(range(self.n_in)))
    history_steps = 0

    def lift_windows(self, states, inputs=None):
        s = np.asarray(states, dtype=float)
        z = reference_monomials(self.exponents, s.reshape(s.shape[0], -1))
        return z.reshape((self.n_out,) + s.shape[1:])
