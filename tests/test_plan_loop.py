"""The closed loop against its per-step public calls, and the shared condensations.

``closed_loop_run`` checks its inputs and buffers once, keeps one step
vector ``[z; 1; u_prev]`` whose ``z`` the lifting's ``lift_next`` advances
to each measurement, and plans from it with ``CondensedMpc.plan``, on a
condensation taken from a bounded memo keyed on content. The reference here
is the same loop spelled out with public ``mpc_step`` and ``rk4_step``
calls, each step lifting its whole window afresh; the two must agree bit
for bit, the error and partial result of a run that diverges or whose lift
overflows included.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koopmpc.mpc
from koopmpc import (
    CondensedMpc,
    ControlSystem,
    DivergenceError,
    InvalidInputError,
    KoopmpcError,
    LinearControlModel,
    MpcConfig,
    closed_loop_run,
    fit_delay_augmented,
    fit_dmdc,
    fit_edmdc,
    identity_dictionary,
    monomials_dictionary,
    mpc_step,
)
from koopmpc.dynamics import _n_steps, rk4_step
from koopmpc.mpc import _stage_costs, condensed
from conftest import LinearRhs

BOUNDS = {
    "default": dict(u_min=-5.0, u_max=5.0, du_min=-50.0, du_max=50.0),
    "saturated": dict(u_min=-1.0, u_max=1.0, du_min=-0.5, du_max=0.5),
}
DT = 0.05


def mpc_cfg(bounds, **overrides):
    kwargs = dict(q=np.eye(2), ru=0.1, rdu=0.1, horizon=15, **BOUNDS[bounds])
    kwargs.update(overrides)
    return MpcConfig(**kwargs)


@pytest.fixture(scope="module")
def models(vdp_training):
    _, trajs, dt = vdp_training
    return {
        "dmdc": fit_dmdc(trajs, dt),
        "edmdc": fit_edmdc(trajs, monomials_dictionary(2, 3), dt),
        "delay": fit_delay_augmented(trajs, 3, dt),
        "delay-x1": fit_delay_augmented(trajs, 3, dt, coords=(0,)),
    }


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(koopmpc.mpc, "_condensations", {})
    return koopmpc.mpc._condensations


def stepwise_loop(plant, model, cfg, x0, t_end, dt, qp_tol=1e-8):
    """``closed_loop_run`` as public per-step calls: its record, and the KoopmpcError or None.

    When step k fails (a step's solve or the plant's divergence) the record
    holds the k completed steps, as the partial result of
    ``closed_loop_run`` does.
    """
    n_steps = _n_steps(t_end, dt)
    q_in, h = model.input_dim, model.lifting.history_steps
    states = np.empty((plant.state_dim, n_steps + 1))
    inputs = np.empty((q_in, n_steps))
    rec = dict(stage=np.empty(n_steps), iterations=np.zeros(n_steps, dtype=int),
               kkt=np.full(n_steps, np.nan), hits=np.zeros(n_steps, dtype=bool))
    x = states[:, 0] = np.asarray(x0, dtype=float)
    u_prev = np.zeros(q_in)
    error = None
    for k in range(n_steps):
        try:
            if k < h:
                u = np.clip(np.zeros(q_in), cfg.u_min, cfg.u_max)
            else:
                step = mpc_step(model, x, u_prev, cfg, history_states=states[:, :k],
                                history_inputs=inputs[:, :k], qp_tol=qp_tol)
                u = step.u
                rec["iterations"][k], rec["kkt"][k], rec["hits"][k] = (
                    step.qp_iterations, step.kkt_residual, step.guess_hit)
            inputs[:, k] = u
            rec["stage"][k] = _stage_costs(cfg, x[:, None], u[:, None], u_prev[:, None])[0]
            x = rk4_step(plant, x, u, k * dt, dt)
        except KoopmpcError as exc:
            error, n_steps = exc, k
            break
        states[:, k + 1] = x
        u_prev = u
    rec = {key: val[:n_steps] for key, val in rec.items()}
    return dict(states=states[:, : n_steps + 1], inputs=inputs[:, :n_steps], **rec), error


def cold_table(loop, *args):
    """``loop(*args)`` from an empty condensation memo, so it starts with no stored optimal sets."""
    koopmpc.mpc._condensations.clear()
    return loop(*args)


def record_of(result):
    stats = result.solve_stats
    return dict(states=result.trajectory.states, inputs=result.trajectory.inputs,
                stage=result.stage_costs, iterations=stats["iterations"],
                kkt=stats["kkt_residual"], hits=stats["guess_hit"])


def assert_bitwise_records(got, want):
    assert got.keys() == want.keys()
    for key in want:
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert (a.dtype, a.shape) == (b.dtype, b.shape), key
        assert a.tobytes() == b.tobytes(), key


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay", "delay-x1"])
@settings(max_examples=12, deadline=None)
@given(x0=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
@example(x0=(-4.0, -4.0))
@example(x0=(0.0, 0.0))
def test_loop_is_bitwise_the_loop_of_public_steps(vdp_training, models, kind, bounds, x0):
    plant = vdp_training[0]
    cfg = mpc_cfg(bounds)
    got = cold_table(closed_loop_run, plant, models[kind], cfg, np.array(x0), 1.0, DT)
    want, error = cold_table(stepwise_loop, plant, models[kind], cfg, np.array(x0), 1.0, DT)
    assert error is None
    assert_bitwise_records(record_of(got), want)


@settings(max_examples=10, deadline=None)
@given(
    x0=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
    signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
)
def test_a_diverging_loop_fails_as_the_loop_of_public_steps(x0, signs):
    # An unstable plant under a wrong model and saturated inputs: the state
    # passes DIVERGENCE_LIMIT within the run, after steps on proposed active sets.
    plant = ControlSystem(2, 1, LinearRhs(10.0 * np.eye(2), np.array([[0.0], [1.0]])))
    model = LinearControlModel(
        a=1.2 * np.eye(2), b=np.array([[0.0], [0.05]]), c=np.eye(2),
        lifting=identity_dictionary(2), dt=DT, kind="dmdc",
    )
    cfg = mpc_cfg("saturated", horizon=5, u_min=-0.1, u_max=0.1, du_min=-0.05, du_max=0.05)
    x0 = np.array(x0) * np.array(signs)
    with pytest.raises(DivergenceError) as exc:
        cold_table(closed_loop_run, plant, model, cfg, x0, 5.0, DT)
    want, error = cold_table(stepwise_loop, plant, model, cfg, x0, 5.0, DT)
    assert str(exc.value) == str(error)
    got = exc.value.partial
    assert got.cumulative_cost.tobytes() == np.cumsum(want["stage"]).tobytes()
    assert_bitwise_records(record_of(got), want)


@pytest.mark.parametrize("x0", [(1e120, 0.0), (0.0, -1e150), (3e200, 3e200)])
def test_an_overflowing_lift_fails_as_the_loop_of_public_steps(vdp_training, models, x0):
    # The loop lifts through lift_next, which still rejects a lift that is
    # not finite, as mpc_step's lift does.
    plant, model, cfg = vdp_training[0], models["edmdc"], mpc_cfg("default")
    with pytest.raises(InvalidInputError) as exc:
        cold_table(closed_loop_run, plant, model, cfg, np.array(x0), 1.0, DT)
    want, error = cold_table(stepwise_loop, plant, model, cfg, np.array(x0), 1.0, DT)
    assert isinstance(error, InvalidInputError)
    assert str(exc.value) == f"horizon problem failed at step 0: {error}"
    assert "dictionary evaluation produced non-finite values" in str(error)
    assert_bitwise_records(record_of(exc.value.partial), want)


@settings(max_examples=150, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stage_costs_price_a_column_alone_as_in_a_batch(dims, seed):
    # The loop prices every step after it ends; a column's cost may not depend on its batch.
    n, q_in, cols = dims
    rng = np.random.default_rng(seed)
    m = 0.5 * rng.standard_normal((n, n))
    cfg = MpcConfig(q=m @ m.T + np.eye(n), ru=float(rng.uniform(0.0, 2.0)),
                    rdu=float(rng.uniform(0.0, 2.0)), reference=rng.standard_normal(n))
    x = rng.uniform(-5.0, 5.0, (n, cols))
    u, u_prev = rng.uniform(-5.0, 5.0, (2, q_in, cols))
    batch = _stage_costs(cfg, x, u, u_prev)
    assert batch.shape == (cols,)
    ru, rdu = cfg.ru * np.eye(q_in), cfg.rdu * np.eye(q_in)
    for j in range(cols):
        alone = _stage_costs(cfg, x[:, j : j + 1], u[:, j : j + 1], u_prev[:, j : j + 1])
        assert alone.tobytes() == batch[j : j + 1].tobytes()
        err, uj, du = x[:, j] - cfg.reference, u[:, j], u[:, j] - u_prev[:, j]
        matmul_cost = float(err @ cfg.q @ err + uj @ ru @ uj + du @ rdu @ du)
        assert abs(batch[j] - matmul_cost) <= 4 * np.spacing(matmul_cost)


class TestSharedCondensations:
    def test_an_in_place_change_gets_a_fresh_condensation(self, vdp_training, models, empty_memo):
        plant, model = vdp_training[0], copy.deepcopy(models["edmdc"])
        cfg, x0 = mpc_cfg("default"), np.array([-3.0, 2.0])
        first = closed_loop_run(plant, model, cfg, x0, 1.0, DT)
        cond = condensed(model, cfg)
        assert len(empty_memo) == 1 and condensed(copy.deepcopy(model), copy.deepcopy(cfg)) is cond
        for change in (
            lambda: model.b.__imul__(0.5),        # a model matrix, in place
            lambda: setattr(cfg, "du_min", -0.25),  # a config bound
            lambda: cfg.q.__setitem__((1, 1), 3.0),  # a config array, in place
        ):
            change()
            got = closed_loop_run(plant, model, cfg, x0, 1.0, DT)
            assert condensed(model, cfg) is not cond
            cond = condensed(model, cfg)
            fresh = CondensedMpc(model, cfg)
            for name in ("h", "_h_inv", "g_state", "g_const", "g_uprev", "lb", "ub", "_rhs"):
                assert getattr(cond, name).tobytes() == getattr(fresh, name).tobytes(), name
            want, _ = cold_table(stepwise_loop, plant, model, cfg, x0, 1.0, DT)
            assert_bitwise_records(record_of(got), want)
            assert not np.array_equal(got.trajectory.inputs, first.trajectory.inputs)
            first = got

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(MpcConfig)])
    def test_every_config_field_is_in_the_key(self, models, empty_memo, field):
        cfg = mpc_cfg("saturated", reference=np.zeros(2))
        changed = copy.deepcopy(cfg)
        value = getattr(cfg, field)
        setattr(changed, field, value + 1 if field != "u_min" else value - 1)  # keeps u_min <= u_max
        model = models["edmdc"]
        cond = condensed(model, cfg)
        fresh = condensed(model, changed)
        assert fresh is not cond and condensed(model, copy.deepcopy(cfg)) is cond
        assert len(empty_memo) == 2

    def test_the_memo_keeps_the_most_recent_few(self, models, empty_memo):
        size, model = koopmpc.mpc._CONDENSED_MAX, models["dmdc"]
        conds = [condensed(model, mpc_cfg("default", horizon=n)) for n in range(1, 3 * size + 1)]
        assert len(empty_memo) == size
        for n in range(2 * size + 1, 3 * size + 1):
            assert condensed(model, mpc_cfg("default", horizon=n)) is conds[n - 1]
        assert condensed(model, mpc_cfg("default", horizon=1)) is not conds[0]
        assert len(empty_memo) == size

    def test_a_step_and_a_loop_share_one_condensation(self, vdp_training, models, empty_memo, monkeypatch):
        built = []
        init = CondensedMpc.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(CondensedMpc, "__init__", counting_init)
        plant, model, cfg = vdp_training[0], models["delay"], mpc_cfg("default")
        for _ in range(2):
            closed_loop_run(plant, model, cfg, np.array([1.0, -1.0]), 0.5, DT)
        mpc_step(model, np.ones(2), np.zeros(1), mpc_cfg("default"),
                 history_states=np.ones((2, 2)), history_inputs=np.zeros((1, 2)))
        assert len(built) == 1

    def test_memoized_arrays_are_read_only(self, models, empty_memo):
        cond = condensed(models["delay"], mpc_cfg("saturated"))
        arrays = [v for v in vars(cond).values() if isinstance(v, np.ndarray)]
        assert len(arrays) >= 15
        for arr in arrays:
            assert arr.size
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0
