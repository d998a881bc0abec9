"""CSV and JSON serialization for trajectories, models, chains and closed loops.

CSV schemas are fixed: every writer emits the same header in the same column
order on every run. Times are in the plant's time unit, states and inputs in
plant units. JSON files are written with sorted keys so identical objects
produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .errors import InvalidInputError
from .observables import DelayCoordinates, DelaySpec, Dictionary
from .sysid import LinearControlModel
from .transfer import BoxPartition, ControlledChain, TransitionMatrix


def jsonify(obj):
    """Recursively convert numpy containers into plain JSON-ready values."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()] if obj.ndim > 0 else obj.item()
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def write_json(obj, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonify(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_number(raw, key):
    """The number under ``key`` as a float; missing, null (``jsonify``'s
    non-finite float) or non-numeric raises InvalidInputError."""
    value = raw.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{key} must be a number, got {value!r}")
    return float(value)


def _state_header(n, q):
    return ["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(q)]


def _cells(values):
    return [repr(float(v)) for v in values]


def _snapshot_rows(traj):
    """One row per snapshot: t, states, held input.

    The input is a zero-order hold over each step; the final row repeats the
    last held input so the schema stays rectangular.
    """
    q = traj.input_dim
    for k in range(traj.times.size):
        uk = traj.inputs[:, min(k, traj.n_steps - 1)] if traj.n_steps else np.zeros(q)
        yield [repr(float(traj.times[k]))] + _cells(traj.states[:, k]) + _cells(uk)


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def trajectories_to_csv(trajectories, path):
    """Several trajectories in one file, tagged by a leading traj column."""
    first = trajectories[0]
    rows = (
        [idx] + row
        for idx, traj in enumerate(trajectories)
        for row in _snapshot_rows(traj)
    )
    _write_csv(path, ["traj"] + _state_header(first.state_dim, first.input_dim), rows)


def trajectories_from_csv(path, state_dim, input_dim):
    data = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))
    out = []
    for idx in np.unique(data[:, 0]).astype(int):
        rows = data[data[:, 0] == idx]
        times = rows[:, 1]
        states = rows[:, 2 : 2 + state_dim].T
        inputs = rows[:-1, 2 + state_dim : 2 + state_dim + input_dim].T
        out.append(Trajectory(times=times, states=states, inputs=inputs))
    return out


def _lifting_descriptor(lifting):
    if isinstance(lifting, DelayCoordinates):
        return {
            "type": "delay",
            "d1": lifting.spec.d1,
            "d2": lifting.spec.d2,
            "coords": list(lifting.coords),
            "state_dim": lifting.state_dim,
            "input_dim": lifting.input_dim,
        }
    if isinstance(lifting, Dictionary):
        return {
            "type": "monomials",
            "n_in": lifting.n_in,
            "exponents": lifting.exponents,
            "labels": list(lifting.labels),
        }
    raise InvalidInputError(f"cannot serialize lifting of type {type(lifting)!r}")


def _lifting_from_descriptor(desc):
    if desc["type"] == "delay":
        # Files from before lags were fixed at one step may carry tau_steps: 1.
        if desc.get("tau_steps", 1) != 1:
            raise InvalidInputError(f"unsupported delay lag tau_steps={desc['tau_steps']!r}")
        return DelayCoordinates(
            spec=DelaySpec(d1=desc["d1"], d2=desc["d2"]),
            coords=desc["coords"],
            state_dim=desc["state_dim"],
            input_dim=desc["input_dim"],
        )
    if desc["type"] == "monomials":
        return Dictionary(desc["n_in"], desc["exponents"])
    raise InvalidInputError(f"unknown lifting descriptor type {desc.get('type')!r}")


def model_to_json(model, path):
    payload = {
        "a": model.a,
        "b": model.b,
        "c": model.c,
        "dims": {
            "lifted": model.lifted_dim,
            "input": model.input_dim,
            "recovered": model.recovered_dim,
        },
        "dt": model.dt,
        "fit_residual": model.fit_residual,
        "kind": model.kind,
        "lifting": _lifting_descriptor(model.lifting),
        "training_hash": model.training_hash,
    }
    write_json(payload, path)


def model_from_json(path):
    raw = read_json(path)
    return LinearControlModel(
        a=np.asarray(raw["a"], dtype=float),
        b=np.asarray(raw["b"], dtype=float),
        c=np.asarray(raw["c"], dtype=float),
        lifting=_lifting_from_descriptor(raw["lifting"]),
        dt=_read_number(raw, "dt"),
        kind=raw["kind"],
        fit_residual=float(raw["fit_residual"]) if raw.get("fit_residual") is not None else float("nan"),
        training_hash=raw.get("training_hash"),
    )


def _nonzero_triplets(p):
    """A matrix as its shape and its nonzero entries in (row, col, value) triplets."""
    rows, cols = np.nonzero(p)
    return {"shape": p.shape, "rows": rows, "cols": cols, "values": p[rows, cols]}


def transition_to_csv(p, path):
    """One ``row,col,value`` line per nonzero entry, in the order ``chain.json`` uses."""
    t = _nonzero_triplets(p)
    _write_csv(path, ["row", "col", "value"], zip(*(t[k].tolist() for k in ("rows", "cols", "values"))))


def _transition_from_entry(entry):
    """Dense matrix of one ``"matrices"`` entry: nonzero triplets, or a nested list."""
    if isinstance(entry, list):  # files written before levels were stored sparse
        return np.asarray(entry, dtype=float)
    shape = tuple(int(v) for v in entry["shape"])
    rows = np.asarray(entry["rows"], dtype=int)
    cols = np.asarray(entry["cols"], dtype=int)
    values = np.asarray(entry["values"], dtype=float)
    if (
        len(shape) != 2
        or not rows.size == cols.size == values.size
        or np.any(rows < 0) or np.any(rows >= shape[0])
        or np.any(cols < 0) or np.any(cols >= shape[1])
    ):
        raise InvalidInputError(f"malformed sparse transition matrix of shape {shape}")
    p = np.zeros(shape)
    p[rows, cols] = values
    return p


def chain_to_json(chain, path):
    """Write a chain; each level's transition matrix is stored as its nonzeros only."""
    write_json(
        {
            "partition": {
                "lows": chain.partition.lows,
                "highs": chain.partition.highs,
                "counts": chain.partition.counts,
            },
            "levels": [lv for lv in chain.levels],
            "tau": chain.mats[0].tau,
            "matrices": [_nonzero_triplets(m.p) for m in chain.mats],
            "counts": [m.counts for m in chain.mats],
            "full_escape": [list(m.full_escape) for m in chain.mats],
        },
        path,
    )


def chain_from_json(path):
    raw = read_json(path)
    part = BoxPartition(
        lows=raw["partition"]["lows"],
        highs=raw["partition"]["highs"],
        counts=raw["partition"]["counts"],
    )
    tau = _read_number(raw, "tau")
    mats = tuple(
        TransitionMatrix(
            p=_transition_from_entry(m),
            tau=tau,
            counts=None if cnt is None else np.asarray(cnt, dtype=float),
            outside=True,
            full_escape=tuple(esc),
        )
        for m, cnt, esc in zip(raw["matrices"], raw["counts"], raw["full_escape"])
    )
    levels = tuple(np.asarray(lv, dtype=float).reshape(-1) for lv in raw["levels"])
    return ControlledChain(levels=levels, mats=mats, partition=part)


def closed_loop_to_csv(result, path):
    """Per-step rows: t, state, applied input, stage cost, running cost.

    The final row carries the terminal state with the last held input; its
    stage cost is written as nan and the running cost repeats the total.
    """
    traj = result.trajectory
    header = _state_header(traj.state_dim, traj.input_dim) + ["stage_cost", "cumulative_cost"]

    def rows():
        for k, row in enumerate(_snapshot_rows(traj)):
            last = k >= traj.n_steps
            stage = float("nan") if last else float(result.stage_costs[k])
            cum = result.total_cost if last else float(result.cumulative_cost[k])
            yield row + [repr(stage), repr(cum)]

    _write_csv(path, header, rows())


def closed_loop_summary(result, success_threshold):
    final_norm = float(np.linalg.norm(result.final_state))
    return {
        "total_cost": result.total_cost,
        "final_state": result.final_state,
        "final_state_norm": final_norm,
        "n_steps": result.trajectory.n_steps,
        "warmup_steps": result.warmup_steps,
        "qp_iterations_total": int(result.solve_stats["iterations"].sum()),
        "qp_guess_hits": int(result.solve_stats["guess_hit"].sum()),
        "qp_max_kkt_residual": float(np.nanmax(result.solve_stats["kkt_residual"]))
        if np.any(np.isfinite(result.solve_stats["kkt_residual"]))
        else None,
        "stabilized": bool(final_norm < success_threshold),
    }
