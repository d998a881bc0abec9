"""Box-partition estimation of density transport under discrete input levels.

Transition matrices here are column-stochastic: entry (i, j) is the fraction
of samples seeded in box j that land in box i, and densities propagate by
left multiplication p <- P p. (Texts that index the other way around state
the transposed, row-stochastic convention; the counting estimator below
normalizes over the source box, which forces the column convention.)

Samples that leave the partition rectangle are routed to an explicit
absorbing "outside" state appended after the boxes, so columns stay
stochastic even when the domain is not invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import rk4_update
from .errors import InvalidInputError
from .numerics import level_index, stationary_vector


@dataclass(frozen=True)
class BoxPartition:
    """Uniform box partition of an axis-aligned rectangle."""

    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lows", np.asarray(self.lows, dtype=float).reshape(-1))
        object.__setattr__(self, "highs", np.asarray(self.highs, dtype=float).reshape(-1))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=int).reshape(-1))
        if not (self.lows.size == self.highs.size == self.counts.size):
            raise InvalidInputError("lows, highs, and counts must have equal length")
        if not (np.all(np.isfinite(self.lows)) and np.all(np.isfinite(self.highs))):
            raise InvalidInputError("lows and highs must be finite")
        if np.any(self.highs <= self.lows):
            raise InvalidInputError("each high must exceed the matching low")
        if np.any(self.counts < 1):
            raise InvalidInputError("counts must be >= 1 per dimension")

    @classmethod
    def regular(cls, bounds, counts):
        bounds = np.asarray(bounds, dtype=float)
        return cls(lows=bounds[:, 0], highs=bounds[:, 1], counts=counts)

    @property
    def dim(self):
        return self.lows.size

    @property
    def n_boxes(self):
        return int(np.prod(self.counts))

    @property
    def outside_index(self):
        return self.n_boxes

    @property
    def widths(self):
        return (self.highs - self.lows) / self.counts

    def box_bounds(self, j):
        """(low, high) corners of box j in the row-major box ordering."""
        idx = np.unravel_index(j, tuple(self.counts))
        lo = self.lows + np.asarray(idx) * self.widths
        return lo, lo + self.widths


def locate(part, x):
    """Box index of a point; ``part.outside_index`` if it leaves the rectangle.

    Boxes are half-open [low, high) along every dimension except that the top
    boundary of the final box is closed, so the rectangle itself is covered.
    """
    return int(locate_many(part, np.asarray(x, dtype=float).reshape(-1, 1))[0])


def locate_many(part, xs):
    """Vectorized :func:`locate` over columns of ``xs`` (n, m)."""
    xs = np.asarray(xs, dtype=float)
    finite = np.all(np.isfinite(xs), axis=0)
    inside = finite & np.all(xs >= part.lows[:, None], axis=0) & np.all(
        xs <= part.highs[:, None], axis=0
    )
    out = np.full(xs.shape[1], part.outside_index, dtype=int)
    if np.any(inside):
        rel = (xs[:, inside] - part.lows[:, None]) / part.widths[:, None]
        idx = np.minimum(np.floor(rel).astype(int), (part.counts - 1)[:, None])
        out[inside] = np.ravel_multi_index(tuple(idx), tuple(part.counts))
    return out


@dataclass
class TransitionMatrix:
    """Column-stochastic transition matrix over a box partition.

    When ``outside`` is set, the final row/column is the appended absorbing
    outside state. ``counts`` records the per-column source-sample counts of
    the estimator; ``full_escape`` lists source boxes all of whose samples
    left the rectangle.
    """

    p: np.ndarray
    tau: float
    counts: np.ndarray | None = None
    outside: bool = False
    full_escape: tuple = ()

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        k = self.p.shape[0]
        if self.p.ndim != 2 or self.p.shape[1] != k:
            raise InvalidInputError("p must be square")
        if not np.all(np.isfinite(self.p)):
            raise InvalidInputError("transition entries must be finite")
        if np.min(self.p) < -1e-12 or np.max(self.p) > 1.0 + 1e-12:
            raise InvalidInputError("transition entries must lie in [0, 1]")
        sums = self.p.sum(axis=0)
        used = sums > 0
        if np.any(np.abs(sums[used] - 1.0) > 1e-12):
            raise InvalidInputError("nonempty columns must sum to 1 within 1e-12")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise InvalidInputError(f"tau must be positive and finite, got {self.tau!r}")

    @property
    def dim(self):
        return self.p.shape[0]


@dataclass
class ControlledChain:
    """Family of transition matrices indexed by discrete input level."""

    levels: tuple
    mats: tuple
    partition: BoxPartition

    def __post_init__(self):
        if len(self.levels) != len(self.mats) or not self.levels:
            raise InvalidInputError("need one transition matrix per level")
        if not all(np.all(np.isfinite(lv)) for lv in self.levels):
            raise InvalidInputError("input levels must be finite")
        dims = {m.dim for m in self.mats}
        if len(dims) != 1:
            raise InvalidInputError("all transition matrices must share one dimension")

    @property
    def dim(self):
        return self.mats[0].dim


@dataclass(frozen=True)
class DensityVector:
    """Nonnegative vector summing to one (stored exactly renormalized)."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float).reshape(-1)
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("density entries must be finite")
        if np.min(arr) < -1e-12:
            raise InvalidInputError("density entries must be nonnegative")
        total = arr.sum()
        if abs(total - 1.0) > 1e-9 or total <= 0:
            raise InvalidInputError("density must sum to 1")
        object.__setattr__(self, "p", np.maximum(arr, 0.0) / max(total, 1e-300))


def _flow_batch(sys, x, level, tau, flow_dt):
    """Flow sample columns for duration tau under a constant input level.

    Non-finite results are tolerated; callers classify them as outside.
    """
    u = np.broadcast_to(level[:, None], (level.size, x.shape[1]))
    if sys.kind == "map":
        n_apps = max(int(round(tau)), 1)
        with np.errstate(all="ignore"):
            for _ in range(n_apps):
                x = np.asarray(sys.rhs(x, u, 0.0), dtype=float)
        return x
    n_sub = max(int(round(tau / flow_dt)), 1)
    h = tau / n_sub
    t = 0.0
    with np.errstate(all="ignore"):
        for _ in range(n_sub):
            x = rk4_update(sys.rhs, x, u, t, h)
            t += h
    return x


def estimate_controlled_transition(sys, part, levels, tau, samples_per_box, seed, flow_dt=None):
    """Monte-Carlo transition-matrix estimate per discrete input level.

    ``samples_per_box`` points are drawn uniformly in each box from a
    per-box generator seeded by (seed, box index), flowed for duration
    ``tau`` under each constant input level, and counted into destination
    boxes. Each column of every matrix is normalized by the source count, so
    nonempty columns sum to exactly one; escapes land in the absorbing
    outside state.
    """
    if samples_per_box < 1:
        raise InvalidInputError("samples_per_box must be >= 1")
    if tau <= 0:
        raise InvalidInputError("tau must be positive")
    if seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    levels = tuple(np.atleast_1d(np.asarray(lv, dtype=float)) for lv in levels)
    for lv in levels:
        if lv.size != sys.input_dim:
            raise InvalidInputError(f"level {lv} does not match the plant input dimension")
    if flow_dt is None:
        flow_dt = tau / 10.0
    d = part.n_boxes
    k = d + 1
    spb = int(samples_per_box)
    pts = np.empty((part.dim, d * spb))
    for j in range(d):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), j]))
        lo, hi = part.box_bounds(j)
        pts[:, j * spb : (j + 1) * spb] = lo[:, None] + rng.random((part.dim, spb)) * (
            hi - lo
        )[:, None]
    src = np.repeat(np.arange(d), spb)
    mats = []
    for lv in levels:
        landed = locate_many(part, _flow_batch(sys, pts.copy(), lv, tau, flow_dt))
        counts = np.zeros((k, k))
        np.add.at(counts, (landed, src), 1.0)
        p = counts / spb
        p[:, d] = 0.0
        p[d, d] = 1.0
        col_counts = np.full(k, spb, dtype=float)
        col_counts[d] = 0.0
        escape = tuple(int(j) for j in range(d) if counts[d, j] == spb)
        mats.append(
            TransitionMatrix(
                p=p, tau=float(tau), counts=col_counts, outside=True, full_escape=escape
            )
        )
    return ControlledChain(levels=levels, mats=tuple(mats), partition=part)


def _density_array(p0, dim):
    arr = p0.p if isinstance(p0, DensityVector) else np.asarray(p0, dtype=float).reshape(-1)
    if arr.size == dim - 1:
        arr = np.concatenate([arr, [0.0]])  # no initial mass outside
    if arr.size != dim:
        raise InvalidInputError(f"density length {arr.size} does not match chain dimension {dim}")
    return DensityVector(arr).p


def propagate_density(chain, p0, input_sequence):
    """Push a density through the chain one level-selected step at a time.

    Returns the list [p0, p1, ..., pK]; every element is renormalized, and
    the pre-normalization drift stays at rounding level because the matrices
    are column-stochastic.
    """
    p = _density_array(p0, chain.dim)
    out = [DensityVector(p)]
    for u in input_sequence:
        mat = chain.mats[level_index(chain.levels, u)]
        p = mat.p @ p
        total = p.sum()
        if abs(total - 1.0) > 1e-9:
            raise InvalidInputError("propagation lost probability mass; chain is inconsistent")
        p = p / total
        out.append(DensityVector(p))
    return out


def invariant_density(tm, start=None, tol=1e-10):
    """Stationary density of a transition matrix (eigenvalue-1 fixed point).

    By default the iteration starts uniform over the real boxes (mass on an
    absorbing outside state would just sit there). For reducible chains the
    result depends on the start, which is exposed for that reason.
    """
    if start is None:
        k = tm.dim
        if tm.outside:
            start = np.concatenate([np.full(k - 1, 1.0 / (k - 1)), [0.0]])
        else:
            start = np.full(k, 1.0 / k)
    pi = stationary_vector(tm.p, start=start, tol=tol)
    return DensityVector(pi)
