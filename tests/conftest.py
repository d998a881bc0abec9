import numpy as np
import pytest

import koopmpc.mpc
from koopmpc import (
    BoxPartition,
    ControlledChain,
    ControlSystem,
    Dictionary,
    LinearControlModel,
    TransitionMatrix,
    Trajectory,
    eval_dictionary,
    generate_training_trajectories,
    make_vanderpol,
    product_sines_family,
)
from koopmpc.io import read_json

A0 = np.array([[0.9, 0.1], [0.0, 0.8]])
B0 = np.array([[0.0], [1.0]])


@pytest.fixture(autouse=True)
def empty_condensations(monkeypatch):
    """An empty condensation memo per test, so no test sees the optimal sets another recorded."""
    monkeypatch.setattr(koopmpc.mpc, "_condensations", {})
    return koopmpc.mpc._condensations


def paths(traj):
    """The paths of a :class:`Trajectory` (one path or a batch) as one-path Trajectories."""
    states, inputs = traj.as_batch()
    return [Trajectory(traj.times, states[:, j], inputs[:, j]) for j in range(traj.n_paths)]


class ZeroForcing:
    """The unforced input: ``input_dim`` zeros at every time, evaluated as ``ForcingSignal`` is."""

    def __init__(self, input_dim=1):
        self.input_dim = input_dim

    def evaluate(self, t):
        return np.zeros((self.input_dim,) + np.shape(t))


def read_chain(path):
    """The :class:`ControlledChain` of a ``chain_to_json`` file, read back from its nonzero triplets."""
    raw = read_json(path)
    mats = []
    for entry, counts, escape in zip(raw["matrices"], raw["counts"], raw["full_escape"]):
        p = np.zeros(entry["shape"])
        p[np.asarray(entry["rows"], dtype=int), np.asarray(entry["cols"], dtype=int)] = entry["values"]
        counts = None if counts is None else np.asarray(counts, dtype=float)
        mats.append(TransitionMatrix(p=p, tau=raw["tau"], counts=counts, outside=True, full_escape=tuple(escape)))
    levels = tuple(np.asarray(lv, dtype=float) for lv in raw["levels"])
    return ControlledChain(levels=levels, mats=tuple(mats), partition=BoxPartition(**raw["partition"]))


def one_step_paths(x, xp, u, dt=0.1):
    """The batch of ``m`` one-step paths from the columns of ``x``, ``xp`` (n, m) and ``u`` (q, m)."""
    return Trajectory([0.0, dt], np.stack([x, xp], axis=-1), np.asarray(u, dtype=float)[..., None])


def discrete_linear_samples(m=50, seed=0, dt=0.1, a0=A0, b0=B0):
    """Noise-free one-step paths of x' = a0 x + b0 u from random states and inputs: states (n, m, 2)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((a0.shape[0], m))
    u = rng.standard_normal((b0.shape[1], m))
    return one_step_paths(x, a0 @ x + b0 @ u, u, dt)


def reference_lift(lifting, x, history_states=None, history_inputs=None):
    """One lifted state built per state, the reference for ``lift_windows`` columns.

    A dictionary evaluates its observables at ``x``. Delay coordinates stack
    ``x`` over ``coords``, then the newest ``depth - 1`` past states over
    ``coords``, newest first, then the newest ``depth - 1`` past inputs.
    History arrays end just before the current step.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if isinstance(lifting, Dictionary):
        return eval_dictionary(lifting, x)
    coords = list(lifting.coords)
    blocks = [x[coords]]
    for j in range(1, lifting.depth):
        blocks.append(np.atleast_2d(np.asarray(history_states, float))[coords, -j])
    for j in range(1, lifting.depth):
        blocks.append(np.atleast_2d(np.asarray(history_inputs, float))[:, -j])
    return np.concatenate(blocks)


def model_on(lifting, dim, input_dim=1):
    """A model with ``dim`` lifted coordinates and ``input_dim`` inputs on ``lifting``, for its ``lift``."""
    return LinearControlModel(
        a=np.eye(dim), b=np.zeros((dim, input_dim)), c=np.eye(1, dim), lifting=lifting, dt=1.0, kind="test"
    )


def simulate_discrete(a0, b0, x0, u):
    states = np.empty((a0.shape[0], u.shape[1] + 1))
    states[:, 0] = x0
    for k in range(u.shape[1]):
        states[:, k + 1] = a0 @ states[:, k] + b0 @ u[:, k]
    return states


class SlowManifoldRhs:
    """x1' = mu x1, x2' = lam (x2 - x1^2); the monomials {x1, x2, x1^2} close it."""

    def __init__(self, mu=-0.05, lam=-1.0):
        self.mu = mu
        self.lam = lam

    def __call__(self, x, u, t):
        return np.stack([self.mu * x[0], self.lam * (x[1] - x[0] ** 2)])


@pytest.fixture(scope="session")
def slow_manifold():
    return ControlSystem(2, 1, SlowManifoldRhs())


class LinearRhs:
    def __init__(self, ac, bc):
        self.ac = np.asarray(ac, float)
        self.bc = np.asarray(bc, float)

    def __call__(self, x, u, t):
        return self.ac @ x + self.bc @ u


@pytest.fixture(scope="session")
def linear_plant():
    """Lightly damped two-state oscillator with one input."""
    ac = np.array([[0.0, 1.0], [-1.0, -0.4]])
    bc = np.array([[0.0], [1.0]])
    return ControlSystem(2, 1, LinearRhs(ac, bc))


@pytest.fixture(scope="session")
def vdp_training():
    """Small forced van der Pol training set shared by the slower tests: plant, batch and dt."""
    plant = make_vanderpol(0.2)
    trajs, _ = generate_training_trajectories(
        plant, 60, [[-6, 6], [-6, 6]], 1.0, 0.05, product_sines_family(5.0, 10.0), 11
    )
    return plant, trajs, 0.05
