"""CSV and JSON serialization for trajectories, models, chains and closed loops.

CSV schemas are fixed: every writer emits the same header in the same column
order on every run. Times are in the plant's time unit, states and inputs in
plant units. JSON files are written with sorted keys so identical objects
produce identical bytes.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory, _count
from .errors import InvalidInputError
from .observables import DelayCoordinates, Dictionary
from .sysid import MODEL_KINDS, LinearControlModel


def jsonify(obj):
    """Recursively convert numpy containers into plain JSON-ready values.

    Non-finite floats become None, whether Python floats, numpy scalars,
    0-d arrays or entries of arrays, lists and dicts.
    """
    if isinstance(obj, (np.floating, np.integer)) or (isinstance(obj, np.ndarray) and obj.ndim == 0):
        obj = obj.item()
    elif isinstance(obj, np.ndarray):
        # Integers, bools and finite floats need no element-wise pass.
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return [jsonify(v) for v in obj.tolist()]
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
    """The JSON object in ``path``; malformed JSON or another top-level value raises InvalidInputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as err:  # undecodable bytes or malformed JSON
            raise InvalidInputError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{path} does not hold a JSON object")
    return raw


def _read_number(raw, key):
    """The number under ``key`` as a float; missing, null (``jsonify``'s
    non-finite float) or non-numeric raises InvalidInputError."""
    value = raw.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{key} must be a number, got {value!r}")
    return float(value)


def _read_int(raw, key):
    """The integer under ``key``; missing or any other type raises InvalidInputError."""
    value = raw.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{key} must be an integer, got {value!r}")
    return value


def _read_array(raw, key):
    """The numeric array under ``key``; a non-numeric or ragged value raises InvalidInputError."""
    try:
        return np.asarray(raw[key], dtype=float)
    except (TypeError, ValueError) as err:
        raise InvalidInputError(f"{key} must be a numeric array: {err}") from None


def _state_header(n, q):
    return ["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(q)]


def _cells(values):
    return [repr(float(v)) for v in values]


def _snapshot_rows(times, states, inputs):
    """One row per sample of one path (``states`` (n, k+1), ``inputs`` (q, k)): t, states, held input.

    The input is a zero-order hold over each step; the final row repeats the
    last held input so the schema stays rectangular.
    """
    n_steps = times.size - 1
    for k in range(times.size):
        uk = inputs[:, min(k, n_steps - 1)] if n_steps else np.zeros(inputs.shape[0])
        yield [repr(float(times[k]))] + _cells(states[:, k]) + _cells(uk)


def trajectory_paths(trajectories):
    """``(times, states, inputs)`` of every path, in order, as one-path (n, k+1) and (q, k) views.

    ``trajectories`` is one :class:`Trajectory` or a sequence of them, each a
    path or a batch.
    """
    for traj in [trajectories] if isinstance(trajectories, Trajectory) else trajectories:
        states, inputs = traj.as_batch()
        for j in range(states.shape[1]):
            yield traj.times, states[:, j], inputs[:, j]


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def trajectories_to_csv(trajectories, path):
    """Every path of ``trajectories`` (see :func:`trajectory_paths`), one row per
    sample, tagged by a leading traj column that counts paths from 0."""
    paths = list(trajectory_paths(trajectories))
    header = _state_header(paths[0][1].shape[0], paths[0][2].shape[0])
    rows = ([idx] + row for idx, one in enumerate(paths) for row in _snapshot_rows(*one))
    _write_csv(path, ["traj"] + header, rows)


def trajectories_from_csv(path, state_dim, input_dim):
    """The paths of a :func:`trajectories_to_csv` file in traj order, as a list of batches.

    Each run of consecutive paths with the same sample times is one
    :class:`Trajectory` batch. A file without data rows, with ragged rows or
    with other than ``2 + state_dim + input_dim`` columns raises InvalidInputError.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if not any(map(str.strip, lines[1:])):
        raise InvalidInputError(f"{path} has no data rows")
    try:
        data = np.genfromtxt(lines, delimiter=",", skip_header=1, ndmin=2)
    except ValueError as err:  # rows of unequal length
        raise InvalidInputError(f"{path} is not a trajectory table: {err}") from None
    if data.shape[1] != 2 + state_dim + input_dim:
        raise InvalidInputError(
            f"{path} has {data.shape[1]} columns, not traj, t, {state_dim} states and {input_dim} inputs"
        )
    data = data[np.argsort(data[:, 0], kind="stable")]
    starts = np.flatnonzero(np.diff(data[:, 0]) != 0) + 1
    out = []
    for _, run in itertools.groupby(np.split(data, starts), key=lambda rows: rows[:, 1].tobytes()):
        block = np.stack(list(run), axis=1)  # (k+1, M, columns)
        out.append(Trajectory(
            times=block[:, 0, 1],
            states=block[:, :, 2 : 2 + state_dim].transpose(2, 1, 0),
            inputs=block[:-1, :, 2 + state_dim : 2 + state_dim + input_dim].transpose(2, 1, 0),
        ))
    return out


def _lifting_descriptor(lifting):
    if isinstance(lifting, DelayCoordinates):
        return {
            "type": "delay",
            "d1": lifting.depth,
            "d2": lifting.depth,
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
    if not isinstance(desc, dict):
        raise InvalidInputError(f"lifting must be a JSON object, got {desc!r}")
    if desc["type"] == "delay":
        # Files from before lags were fixed at one step may carry tau_steps: 1.
        if desc.get("tau_steps", 1) != 1:
            raise InvalidInputError(f"unsupported delay lag tau_steps={desc['tau_steps']!r}")
        # Files keep a state depth d1 and an input depth d2; both are the one depth.
        d1, d2 = _count(desc["d1"], "d1", 1), _count(desc["d2"], "d2", 1)
        if d1 != d2:
            raise InvalidInputError(f"delay depths d1={d1} and d2={d2} differ; a lifting has one depth")
        return DelayCoordinates(
            depth=d1,
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
    try:
        model = LinearControlModel(
            a=_read_array(raw, "a"),
            b=_read_array(raw, "b"),
            c=_read_array(raw, "c"),
            lifting=_lifting_from_descriptor(raw["lifting"]),
            dt=_read_number(raw, "dt"),
            kind=raw["kind"],
            fit_residual=float("nan") if raw.get("fit_residual") is None else _read_number(raw, "fit_residual"),
            training_hash=raw.get("training_hash"),
        )
    except KeyError as err:
        raise InvalidInputError(f"model file {path} has no key {err}") from err
    # The CLI names its output files after the kind.
    if model.kind not in MODEL_KINDS:
        raise InvalidInputError(f"kind must be one of {list(MODEL_KINDS)}, got {model.kind!r}")
    if not isinstance(model.training_hash, (str, type(None))):
        raise InvalidInputError(f"training_hash must be a string, got {model.training_hash!r}")
    return model


def _nonzero_triplets(p):
    """A matrix as its shape and its nonzero entries in (row, col, value) triplets."""
    rows, cols = np.nonzero(p)
    return {"shape": p.shape, "rows": rows, "cols": cols, "values": p[rows, cols]}


def transition_to_csv(p, path):
    """One ``row,col,value`` line per nonzero entry, in the order ``chain.json`` uses."""
    t = _nonzero_triplets(p)
    _write_csv(path, ["row", "col", "value"], zip(*(t[k].tolist() for k in ("rows", "cols", "values"))))


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


def closed_loop_to_csv(result, path):
    """Per-step rows: t, state, applied input, stage cost, running cost.

    The final row carries the terminal state with the last held input; its
    stage cost is written as nan and the running cost repeats the total.
    """
    traj = result.trajectory
    header = _state_header(traj.state_dim, traj.input_dim) + ["stage_cost", "cumulative_cost"]

    def rows():
        for k, row in enumerate(_snapshot_rows(traj.times, traj.states, traj.inputs)):
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
