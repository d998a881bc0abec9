"""Box-partition estimation of density transport under discrete input levels.

Transition matrices here are column-stochastic: entry (i, j) is the fraction
of samples seeded in box j that land in box i, and densities propagate by
left multiplication p <- P p. (Texts that index the other way around state
the transposed, row-stochastic convention; the counting estimator below
normalizes over the source box, which forces the column convention.)

Samples that leave the partition rectangle are routed to an explicit
absorbing "outside" state appended after the boxes, so columns stay
stochastic even when the domain is not invariant.

This is Ulam's method, EDMD over box indicators: the counts are the
regression of the landed samples' boxes on their source boxes. Box j's
samples come from the stream (seed, j), the generator of
``default_rng(SeedSequence([seed, j]))``, whatever the batching; every box's
stream is seeded in one vectorized pass (``dynamics._index_streams``) and
drawn into one buffer, and each level's (landed, source) pairs
are counted by one ``np.unique`` of their row-major flat indices, which
gives the level's ``scipy.sparse.csr_array`` directly. A transition matrix
is kept sparse from the count to its density solve and its file: no
(boxes + 1)^2 array is ever made. The RK4 flow of the samples is most of
the estimator's time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .dynamics import _count, _index_streams, check_positive, rk4_update
from .errors import InvalidInputError
from .numerics import stationary_vector


@dataclass(frozen=True)
class BoxPartition:
    """Uniform box partition of an axis-aligned rectangle."""

    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lows", np.asarray(self.lows, dtype=float).reshape(-1))
        object.__setattr__(self, "highs", np.asarray(self.highs, dtype=float).reshape(-1))
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise InvalidInputError(f"counts must be integers, got {self.counts!r}")
        object.__setattr__(self, "counts", counts.astype(int).reshape(-1))
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


def locate_many(part, xs):
    """Box index of each column of ``xs`` (n, m); ``part.outside_index`` if it leaves the rectangle.

    Boxes are half-open [low, high) along every dimension except that the top
    boundary of the final box is closed, so the rectangle itself is covered.
    A column with a non-finite entry is outside.
    """
    xs = np.asarray(xs, dtype=float)
    inside = np.ones(xs.shape[1], dtype=bool)
    flat = np.zeros(xs.shape[1])
    # One row at a time: comparisons with NaN are False, and the box index of
    # an outside column, however large or non-finite, is replaced below.
    with np.errstate(all="ignore"):
        for row, lo, hi, width, n in zip(xs, part.lows, part.highs, part.widths, part.counts):
            inside &= (row >= lo) & (row <= hi)
            flat = flat * n + np.minimum(np.floor((row - lo) / width), n - 1)
    return np.where(inside, flat, part.outside_index).astype(int)


@dataclass
class TransitionMatrix:
    """Column-stochastic transition matrix over a box partition.

    ``p`` is stored as a canonical ``scipy.sparse.csr_array`` (sorted column
    indices, no duplicates, no stored zeros), whether it is given sparse or
    dense: ``p @ density`` propagates a density and ``p.toarray()`` gives the
    dense matrix. Only the stored entries are checked. When ``outside`` is
    set, the final row/column is the appended absorbing outside state.
    ``counts`` records the per-column source-sample counts of the estimator;
    ``full_escape`` lists source boxes all of whose samples left the
    rectangle.
    """

    p: scipy.sparse.csr_array
    tau: float
    counts: np.ndarray | None = None
    outside: bool = False
    full_escape: tuple = ()

    def __post_init__(self):
        p = self.p if scipy.sparse.issparse(self.p) else np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
            raise InvalidInputError("p must be a nonempty square matrix")
        self.p = p = scipy.sparse.csr_array(p, dtype=float, copy=True)  # the caller's arrays stay unwritten
        p.sum_duplicates()
        p.eliminate_zeros()
        k = p.shape[0]
        if not np.all(np.isfinite(p.data)):
            raise InvalidInputError("transition entries must be finite")
        if np.min(p.data, initial=0.0) < -1e-12 or np.max(p.data, initial=0.0) > 1.0 + 1e-12:
            raise InvalidInputError("transition entries must lie in [0, 1]")
        sums = p.sum(axis=0)
        used = sums > 0
        if np.any(np.abs(sums[used] - 1.0) > 1e-12):
            raise InvalidInputError("nonempty columns must sum to 1 within 1e-12")
        check_positive(self.tau, "tau")
        if self.counts is not None and np.shape(self.counts) != (k,):
            raise InvalidInputError(f"counts must hold one entry per column ({k}), got shape {np.shape(self.counts)}")
        boxes = k - 1 if self.outside else k
        self.full_escape = tuple(_count(j, "full_escape entry", 0) for j in self.full_escape)
        if any(j >= boxes for j in self.full_escape):
            raise InvalidInputError(f"full_escape entries must be box indices below {boxes}, got {self.full_escape}")

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


# Samples are flowed this many columns at a time, so that the RK4 stages of a
# block stay in cache; the arithmetic is elementwise, so results do not depend
# on it.
_FLOW_BLOCK = 16384


def _flow_batch(sys, x, level, tau, flow_dt):
    """Flow sample columns for duration tau under a constant input level.

    Non-finite results are tolerated; callers classify them as outside. A
    flow's RK4 keeps the state as a list of rows between substeps and stacks
    them once; ``x`` itself is never written.
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
    return np.array(x)


def _sample_boxes(part, spb, seed):
    """``spb`` uniform points per box as a (dim, boxes * spb) array, box j's in columns j*spb onward.

    Box j's points come from the stream ``(seed, j)`` of
    :func:`~koopmpc.dynamics._index_streams`, so they do not depend on how
    many boxes there are or how they are batched.
    """
    idx = np.stack(np.unravel_index(np.arange(part.n_boxes), tuple(part.counts)))
    lo = part.lows[:, None] + idx * part.widths[:, None]
    span = (lo + part.widths[:, None]) - lo
    r = np.empty((part.n_boxes, part.dim, spb))
    for j, rng in enumerate(_index_streams(seed, part.n_boxes)):
        rng.random(out=r[j])
    r *= span.T[:, :, None]
    r += lo.T[:, :, None]
    return r.transpose(1, 0, 2).reshape(part.dim, -1)


def estimate_controlled_transition(sys, part, levels, tau, samples_per_box, seed, flow_dt=None):
    """Monte-Carlo transition-matrix estimate per discrete input level.

    ``samples_per_box`` points are drawn uniformly in each box from a
    per-box generator seeded by (seed, box index), flowed for duration
    ``tau`` under each constant input level, and counted into destination
    boxes. Each column of every matrix is normalized by the source count, so
    nonempty columns sum to exactly one; escapes land in the absorbing
    outside state.
    """
    spb = _count(samples_per_box, "samples_per_box", 1)
    seed = _count(seed, "seed", 0)
    check_positive(tau, "tau")
    if part.dim != sys.state_dim:
        raise InvalidInputError(
            f"partition dimension {part.dim} does not match the plant state dimension {sys.state_dim}"
        )
    levels = tuple(np.atleast_1d(np.asarray(lv, dtype=float)) for lv in levels)
    for lv in levels:
        if lv.size != sys.input_dim:
            raise InvalidInputError(f"level {lv} does not match the plant input dimension")
        if not np.all(np.isfinite(lv)):
            raise InvalidInputError(f"input level {lv} must be finite")
    flow_dt = tau / 10.0 if flow_dt is None else flow_dt
    check_positive(flow_dt, "flow_dt")
    d = part.n_boxes
    k = d + 1
    pts = _sample_boxes(part, spb, seed)
    src = np.repeat(np.arange(d), spb)
    blocks = range(0, pts.shape[1], _FLOW_BLOCK)
    mats = []
    for lv in levels:
        landed = np.concatenate([
            locate_many(part, _flow_batch(sys, pts[:, i : i + _FLOW_BLOCK], lv, tau, flow_dt))
            for i in blocks
        ])
        keys, hits = np.unique(landed * k + src, return_counts=True)
        # Flat (row, col) keys sort row-major, and the absorbing (d, d) entry after all of them.
        keys = np.append(keys, d * k + d)
        rows_start = np.searchsorted(keys, np.arange(k + 1) * k)
        p = scipy.sparse.csr_array((np.append(hits / spb, 1.0), keys % k, rows_start), shape=(k, k))
        escaped = keys[:-1][hits == spb] - d * k  # row d: boxes whose every sample left
        col_counts = np.full(k, spb, dtype=float)
        col_counts[d] = 0.0
        mats.append(
            TransitionMatrix(
                p=p, tau=float(tau), counts=col_counts, outside=True,
                full_escape=tuple(escaped[escaped >= 0].tolist()),
            )
        )
    return ControlledChain(levels=levels, mats=tuple(mats), partition=part)


def invariant_density(tm, start=None):
    """Invariant density: the eigenvalue-1 projection of ``start`` (see ``stationary_vector``).

    By default the start is uniform over the real boxes (mass on an
    absorbing outside state would just sit there). Each closed class, the
    outside state among them, ends with its stationary density weighted by
    the start mass it holds or absorbs, so the result depends on the start.
    """
    if start is None:
        k = tm.dim
        if tm.outside:
            start = np.concatenate([np.full(k - 1, 1.0 / (k - 1)), [0.0]])
        else:
            start = np.full(k, 1.0 / k)
    return DensityVector(stationary_vector(tm.p, start=start))
