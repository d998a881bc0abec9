"""The Ulam estimator and JSON writer as they were before sampling was batched: the references they are tested against.

Each box draws its points from its own generator and its own corners, one box
at a time; samples are located with boolean masks and counted with
``np.add.at`` into a dense float matrix; a JSON file is streamed by
``json.dump``.
"""

import io
import json

import numpy as np

from koopmpc.io import jsonify
from koopmpc.transfer import _FLOW_BLOCK, _flow_batch


def reference_box_bounds(part, j):
    """(low, high) corners of box j in the row-major box ordering."""
    idx = np.unravel_index(j, tuple(part.counts))
    lo = part.lows + np.asarray(idx) * part.widths
    return lo, lo + part.widths


def reference_sample(part, spb, seed):
    """``spb`` points per box, drawn box after box: (dim, boxes * spb)."""
    pts = np.empty((part.dim, part.n_boxes * spb))
    for j in range(part.n_boxes):
        rng = np.random.default_rng(np.random.SeedSequence([seed, j]))
        lo, hi = reference_box_bounds(part, j)
        pts[:, j * spb : (j + 1) * spb] = lo[:, None] + rng.random((part.dim, spb)) * (hi - lo)[:, None]
    return pts


def reference_locate(part, xs):
    """Box index of each column of ``xs``; ``part.outside_index`` if it leaves the rectangle or is not finite."""
    xs = np.asarray(xs, dtype=float)
    finite = np.all(np.isfinite(xs), axis=0)
    inside = finite & np.all(xs >= part.lows[:, None], axis=0) & np.all(xs <= part.highs[:, None], axis=0)
    out = np.full(xs.shape[1], part.outside_index, dtype=int)
    if np.any(inside):
        rel = (xs[:, inside] - part.lows[:, None]) / part.widths[:, None]
        idx = np.minimum(np.floor(rel).astype(int), (part.counts - 1)[:, None])
        out[inside] = np.ravel_multi_index(tuple(idx), tuple(part.counts))
    return out


def reference_count(landed, spb, d):
    """``(p, col_counts, full_escape)`` of one level from the destination box of each sample, box by box."""
    k = d + 1
    src = np.repeat(np.arange(d), spb)
    counts = np.zeros((k, k))
    np.add.at(counts, (landed, src), 1.0)
    p = counts / spb
    p[:, d] = 0.0
    p[d, d] = 1.0
    col_counts = np.full(k, spb, dtype=float)
    col_counts[d] = 0.0
    escape = tuple(int(j) for j in range(d) if counts[d, j] == spb)
    return p, col_counts, escape


def reference_estimate(sys, part, levels, tau, spb, seed, flow_dt):
    """``reference_count`` per level of the ``reference_sample`` points, flowed in the estimator's blocks."""
    pts = reference_sample(part, spb, seed)
    out = []
    for lv in levels:
        lv = np.atleast_1d(np.asarray(lv, dtype=float))
        landed = np.concatenate([
            reference_locate(part, _flow_batch(sys, pts[:, i : i + _FLOW_BLOCK], lv, tau, flow_dt))
            for i in range(0, pts.shape[1], _FLOW_BLOCK)
        ])
        out.append(reference_count(landed, spb, part.n_boxes))
    return out


def reference_json_text(obj):
    """The text ``write_json`` wrote when it streamed ``json.dump``."""
    fh = io.StringIO()
    json.dump(jsonify(obj), fh, sort_keys=True, indent=2)
    fh.write("\n")
    return fh.getvalue()
