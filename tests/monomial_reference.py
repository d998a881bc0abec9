"""The per-factor monomial expression: the reference the gather form is tested against.

Every factor ``cols[j] ** exponents[i, j]`` is its own power, one (d, n, m)
broadcast, multiplied along ``n``, as the dictionaries evaluated before they
raised each coordinate to each power once and gathered the factors.
"""

import numpy as np


def reference_monomials(exponents, cols):
    """prod_j cols[j] ** exponents[:, j]: (d, n) exponents, (n, m) columns -> (d, m)."""
    return np.multiply.reduce(cols[None, :, :] ** exponents[:, :, None], axis=1)
