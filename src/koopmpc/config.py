"""Experiment configuration: JSON files over explicit defaults, fail-closed.

Unknown keys are rejected rather than ignored so a typo cannot silently run
the default experiment, and so is NaN anywhere (Python's json reads the
literal) and infinity anywhere but the input bounds. An empty file (or
missing keys) resolves to the benchmark defaults below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError

_MODEL_NAMES = ("dmdc", "edmdc", "delay")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float_array(key, value):
    """``value`` as a float array; NaN or an infinity anywhere in it raises ConfigError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must hold numbers") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"config key {key!r} must hold finite numbers")
    return arr


def _check_box(key, v):
    arr = _float_array(key, v)
    if arr.ndim != 2 or arr.shape[1] != 2 or np.any(arr[:, 0] >= arr[:, 1]):
        raise ConfigError(f"config key {key!r} must be a list of (low, high) pairs")
    return [[float(a), float(b)] for a, b in arr]


@dataclass
class ExperimentConfig:
    """Resolved benchmark configuration (all fields populated)."""

    # plant and training data
    mu: float = 0.2
    n_trajectories: int = 200
    training_box: list = field(default_factory=lambda: [[-6.0, 6.0], [-6.0, 6.0]])
    training_t_end: float = 1.0
    dt: float = 0.05
    forcing_amplitude: float = 5.0
    forcing_omega_std: float = 10.0
    seed: int = 0
    # model fitting
    models: list = field(default_factory=lambda: list(_MODEL_NAMES))
    svd_tol: float = 1e-10
    edmdc_order: int = 5
    delay_depth: int = 5
    delay_full_state: bool = True
    # validation and prediction metrics
    n_validation: int = 50
    validation_box: list = field(default_factory=lambda: [[-3.0, 3.0], [-3.0, 3.0]])
    prediction_horizon: int = 15
    # receding-horizon control
    mpc_horizon: int = 15
    state_weight: list = field(default_factory=lambda: [[1.0, 0.0], [0.0, 1.0]])
    input_weight: float = 0.1
    input_rate_weight: float = 0.1
    u_min: float = -5.0
    u_max: float = 5.0
    du_min: float = -50.0
    du_max: float = 50.0
    reference: list = field(default_factory=lambda: [0.0, 0.0])
    mpc_t_end: float = 30.0
    success_threshold: float = 0.05
    closed_loop_x0: list = field(default_factory=lambda: [2.0, 0.0])
    run_mpc_validation: bool = True
    run_mpc_grid: bool = True
    ic_grid_n: int = 9
    ic_grid_box: list = field(default_factory=lambda: [[-4.0, 4.0], [-4.0, 4.0]])
    # transition-chain estimation
    ulam_box: list = field(default_factory=lambda: [[-4.0, 4.0], [-4.0, 4.0]])
    ulam_counts: list = field(default_factory=lambda: [16, 16])
    ulam_levels: list = field(default_factory=lambda: [-5.0, 0.0, 5.0])
    ulam_tau: float = 0.5
    ulam_samples_per_box: int = 200
    ulam_flow_dt: float = 0.05

    def resolved(self):
        """Plain-dict echo of every field, ready for JSON provenance records."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


# Annotations are strings here (postponed evaluation), e.g. "int".
_INT_KEYS = {f.name for f in fields(ExperimentConfig) if f.type == "int"}
_BOOL_KEYS = {f.name for f in fields(ExperimentConfig) if f.type == "bool"}
_BOX_KEYS = {"training_box", "validation_box", "ic_grid_box", "ulam_box"}
# Input bounds may be infinite (unbounded); every other number must be finite.
_BOUND_KEYS = {"u_min", "u_max", "du_min", "du_max"}
_POSITIVE_KEYS = {
    "n_trajectories", "training_t_end", "dt", "edmdc_order", "delay_depth",
    "n_validation", "prediction_horizon", "mpc_horizon", "mpc_t_end",
    "success_threshold", "ulam_tau", "ulam_samples_per_box", "ulam_flow_dt",
    "ic_grid_n",
}


def _validate_key(key, value):
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be a boolean")
        return value
    if key in _BOX_KEYS:
        return _check_box(key, value)
    if key in _INT_KEYS:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be an integer")
        if key == "seed" and value < 0:
            raise ConfigError("config key 'seed' must be nonnegative")
        if key in _POSITIVE_KEYS and value < 1:
            raise ConfigError(f"config key {key!r} must be >= 1")
        return value
    if key == "models":
        if (
            not isinstance(value, list)
            or not value
            or any(m not in _MODEL_NAMES for m in value)
            or len(set(value)) != len(value)
        ):
            raise ConfigError(f"config key 'models' must be a subset of {list(_MODEL_NAMES)}")
        return list(value)
    if key in ("state_weight",):
        arr = _float_array(key, value)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("config key 'state_weight' must be a square matrix")
        return [[float(x) for x in row] for row in arr]
    if key in ("reference", "closed_loop_x0", "ulam_levels", "ulam_counts"):
        arr = _float_array(key, value)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigError(f"config key {key!r} must be a flat list of numbers")
        if key == "ulam_counts":
            if np.any(arr < 1) or np.any(arr != np.round(arr)):
                raise ConfigError("config key 'ulam_counts' must be positive integers")
            return [int(x) for x in arr]
        return [float(x) for x in arr]
    if not _is_number(value):
        raise ConfigError(f"config key {key!r} must be a number")
    if np.isnan(value) or (np.isinf(value) and key not in _BOUND_KEYS):
        raise ConfigError(f"config key {key!r} must be a finite number")
    if key in _POSITIVE_KEYS and value <= 0:
        raise ConfigError(f"config key {key!r} must be positive")
    return float(value)


def config_from_mapping(raw):
    """Build a resolved config from a dict, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _validate_key(key, value))
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg):
    if cfg.u_min > cfg.u_max or cfg.du_min > cfg.du_max:
        raise ConfigError("input bounds must satisfy min <= max")
    n = len(cfg.training_box)
    for key in ("validation_box", "ic_grid_box"):
        if len(getattr(cfg, key)) != n:
            raise ConfigError(f"config key {key!r} must match the training box dimension")
    if len(cfg.reference) != n or len(cfg.closed_loop_x0) != n:
        raise ConfigError("'reference' and 'closed_loop_x0' must match the state dimension")
    if len(cfg.state_weight) != n:
        raise ConfigError("'state_weight' must match the state dimension")
    if len(cfg.ulam_counts) != len(cfg.ulam_box):
        raise ConfigError("'ulam_counts' must match the ulam box dimension")


def parse_config(path):
    """Load a JSON config file; empty files mean 'all defaults'."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    if not text.strip():
        return config_from_mapping({})
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    return config_from_mapping(raw)
