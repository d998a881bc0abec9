"""The array-form RK4 step and van der Pol field: the reference the coordinate-wise integrator is tested against.

Each stage is one numpy expression on the whole state array, and the field
writes both derivatives into a fresh array, as the integrator did before it
ran one state on Python floats.
"""

import numpy as np

from koopmpc import DivergenceError
from koopmpc.dynamics import DIVERGENCE_LIMIT


def reference_vanderpol(mu):
    """x1' = x2, x2' = mu * (1 - x1^2) * x2 - x1 + u on an (n,) or (n, m) array."""
    mu = float(mu)

    def rhs(x, u, t):
        x1, x2 = x[0], x[1]
        out = np.empty(x.shape)
        out[0] = x2
        out[1] = mu * (1.0 - x1 * x1) * x2 - x1 + u[0]
        return out

    return rhs


def reference_rk4_update(rhs, x, u, t, dt):
    k1 = rhs(x, u, t)
    k2 = rhs(x + 0.5 * dt * k1, u, t + 0.5 * dt)
    k3 = rhs(x + 0.5 * dt * k2, u, t + 0.5 * dt)
    k4 = rhs(x + dt * k3, u, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rk4_step(rhs, x, u, t, dt):
    """One step on arrays; DivergenceError unless every entry is within the limit, NaN failing."""
    with np.errstate(all="ignore"):
        out = reference_rk4_update(rhs, np.asarray(x, dtype=float), np.asarray(u, dtype=float), t, dt)
    if not (np.abs(out) <= DIVERGENCE_LIMIT).all():
        raise DivergenceError(f"state left |x| <= {DIVERGENCE_LIMIT:.0e} at t={t + dt:.4g}")
    return out
