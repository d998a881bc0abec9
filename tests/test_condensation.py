"""The indexed horizon condensation, the stacked row check and the closed loop built on them.

The reference paths below are test-local copies of the constructions they
replaced: a double loop over Markov-parameter blocks and ``np.kron`` block
diagonals for the condensed QP, and a box comparison plus a rate-row product
for the feasibility check. Both must agree with the package bit for bit, and
closed loops must reproduce recorded runs.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmpc import (
    CondensedMpc,
    DelayCoordinates,
    Dictionary,
    InvalidInputError,
    LinearControlModel,
    MpcConfig,
    closed_loop_run,
    fit_delay_augmented,
    fit_dmdc,
    identity_dictionary,
)
from koopmpc.benchmark import fit_models, grid_initial_conditions, make_training_data, mpc_config_from
from koopmpc.config import ExperimentConfig
from koopmpc.numerics import FactoredQp, _constraint_rows
from conftest import discrete_linear_samples

from cold_loop import cold_closed_loop_run


def reference_condensation(model, cfg):
    """The condensed QP's data as the loop-and-kron construction built it."""
    a, b, c = model.a, model.b, model.c
    dim, q_in, ny = a.shape[0], b.shape[1], c.shape[0]
    q, ref = cfg.q, cfg.reference
    if q.shape[0] != ny:
        coords = list(model.lifting.coords)
        q, ref = q[np.ix_(coords, coords)], ref[coords]
    n = cfg.horizon
    ru = cfg.ru * np.eye(q_in)
    rdu = cfg.rdu * np.eye(q_in)

    a_pows = [np.eye(dim)]
    for _ in range(n):
        a_pows.append(a @ a_pows[-1])
    pred = np.vstack([c @ a_pows[k] for k in range(1, n + 1)])
    smat = np.zeros((n * ny, n * q_in))
    cab = [c @ a_pows[k] @ b for k in range(n)]
    for k in range(1, n + 1):
        for j in range(k):
            smat[(k - 1) * ny : k * ny, j * q_in : (j + 1) * q_in] = cab[k - 1 - j]
    qbar = np.zeros((n * ny, n * ny))
    for k in range(n):
        qbar[k * ny : (k + 1) * ny, k * ny : (k + 1) * ny] = q
    rubar = np.kron(np.eye(n), ru)
    rdubar = np.kron(np.eye(n), rdu)
    lmat = np.kron(np.eye(n), np.eye(q_in))
    lmat -= np.kron(np.eye(n, k=-1), np.eye(q_in))
    emat = np.zeros((n * q_in, q_in))
    emat[:q_in] = np.eye(q_in)

    half = smat.T @ qbar @ smat + rubar + lmat.T @ rdubar @ lmat
    h = half + half.T
    out = {
        "h": h,
        "_h_inv": scipy.linalg.cho_solve(scipy.linalg.cho_factor(h), np.eye(n * q_in)),
        "g_state": 2.0 * smat.T @ qbar @ pred,
        "g_const": -2.0 * smat.T @ qbar @ np.tile(ref, n),
        "g_uprev": -2.0 * lmat.T @ rdubar @ emat,
    }

    def bound(v):
        return np.tile(np.broadcast_to(np.asarray([v], dtype=float), q_in), n)

    out["lb"], out["ub"] = bound(cfg.u_min), bound(cfg.u_max)
    du_max, du_min = bound(cfg.du_max), bound(cfg.du_min)
    keep = np.isfinite(np.concatenate([du_max, -du_min]))
    out["a_ineq"] = np.vstack([lmat, -lmat])[keep] if keep.any() else None
    out["rate_bound"] = np.concatenate([du_max, -du_min])[keep]
    out["rate_shift"] = np.vstack([emat, -emat])[keep]
    return out


def reference_is_feasible(cond, u_seq, u_prev, tol):
    """Box comparisons, then the rate rows, as the two-part check did it."""
    u_seq = np.asarray(u_seq, dtype=float).reshape(-1)
    if not ((cond.lb - tol <= u_seq).all() and (u_seq <= cond.ub + tol).all()):
        return False
    rate_rhs = cond._rate_bound + cond._rate_shift @ np.asarray(u_prev, dtype=float).reshape(-1)
    return bool(cond.a_ineq is None or (cond.a_ineq @ u_seq <= rate_rhs + tol).all())


def assert_bitwise(got, want, name):
    if want is None:
        assert got is None, name
        return
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert got.tobytes() == want.tobytes(), name


def random_psd(rng, dim, shift):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + shift * np.eye(dim)


def draw_bound(draw, rng, sign):
    return sign * np.inf if draw(st.booleans()) else sign * float(rng.uniform(0.1, 3.0))


@st.composite
def condensation_case(draw):
    """A random stable model with 1-3 inputs, weights (maybe on a partial state) and one-sided or infinite bounds.

    The lifting gives as many coordinates as ``a`` has rows; condensation reads only its coordinates.
    """
    q_in = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plant_dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # Partial state: the model recovers some plant coordinates, the weight is on all of them.
        n_coords = draw(st.integers(1, plant_dim))
        coords = tuple(sorted(rng.choice(plant_dim, n_coords, replace=False).tolist()))
        lifting = DelayCoordinates(draw(st.integers(1, 4)), coords, plant_dim, q_in)
        ny, q_dim = n_coords, plant_dim
    else:
        ny = q_dim = plant_dim
        lifting = Dictionary(ny, rng.integers(0, 3, (draw(st.integers(1, 20)), ny)))
    dim = lifting.n_out
    a = rng.standard_normal((dim, dim))
    a /= max(1.0, np.linalg.norm(a, 2)) * rng.uniform(1.0, 1.5)
    b = rng.standard_normal((dim, q_in))
    c = rng.standard_normal((ny, dim))
    model = LinearControlModel(a=a, b=b, c=c, lifting=lifting, dt=0.1, kind="dmdc")

    cfg = MpcConfig(
        q=random_psd(rng, q_dim, 0.0),
        ru=float(rng.uniform(0.01, 2.0)),
        rdu=float(rng.uniform(0.01, 2.0)) if draw(st.booleans()) else 0.0,
        horizon=horizon,
        u_min=draw_bound(draw, rng, -1.0),
        u_max=draw_bound(draw, rng, 1.0),
        du_min=draw_bound(draw, rng, -1.0),
        du_max=draw_bound(draw, rng, 1.0),
        reference=rng.standard_normal(q_dim),
    )
    return model, cfg, rng.standard_normal(q_in)


class TestIndexedCondensation:
    @settings(max_examples=150, deadline=None)
    @given(case=condensation_case())
    def test_matches_the_loop_and_kron_construction_bitwise(self, case):
        model, cfg, u_prev = case
        cond = CondensedMpc(model, cfg)
        want = reference_condensation(model, cfg)
        for name in ("h", "_h_inv", "g_state", "g_const", "g_uprev", "a_ineq", "lb", "ub"):
            assert_bitwise(getattr(cond, name), want[name], name)
        rows, rhs = _constraint_rows(want["a_ineq"], want["rate_bound"], want["lb"], want["ub"])
        factored = FactoredQp.factor(want["h"], None, rows, rhs)
        solver_qp = cond.factored_qp(np.zeros(cond.h.shape[0]), u_prev)
        for name in ("rows", "u_inv", "rows_u"):
            assert_bitwise(getattr(solver_qp, name), getattr(factored, name), name)
        assert_bitwise(cond._rhs, factored.rhs, "rhs")
        step_rhs = rhs.copy()
        step_rhs[: want["rate_bound"].size] = want["rate_bound"] + want["rate_shift"] @ u_prev
        assert_bitwise(solver_qp.rhs, step_rhs, "step rhs")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
def test_a_model_without_a_finite_hessian_is_rejected(entry):
    # nan and inf are rejected by the model itself; 1e200 overflows a^2 at horizon 3.
    with pytest.raises(InvalidInputError, match="not finite"):
        model = LinearControlModel(
            a=np.array([[entry, 0.0], [0.0, 0.5]]), b=np.ones((2, 1)), c=np.eye(2),
            lifting=identity_dictionary(2), dt=0.1, kind="dmdc",
        )
        CondensedMpc(model, MpcConfig(q=np.eye(2), ru=0.1, horizon=3))


PLAN_ENTRIES = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, np.nan, np.inf, -np.inf]),
    st.floats(-2.0, 2.0),
)


@st.composite
def feasibility_case(draw):
    q_in = draw(st.integers(1, 2))
    horizon = draw(st.integers(1, 5))
    layout = draw(st.sampled_from(["both", "du_min only", "du_max only", "box only", "none"]))
    u_lim = draw(st.sampled_from([1.0, np.inf]))
    du_lim = draw(st.sampled_from([0.5, 1.0]))
    bounds = {
        "u_min": -u_lim if layout != "none" else -np.inf,
        "u_max": draw(st.sampled_from([u_lim, np.inf])) if layout != "none" else np.inf,
        "du_min": -du_lim if layout in ("both", "du_min only") else -np.inf,
        "du_max": du_lim if layout in ("both", "du_max only") else np.inf,
    }
    plan = np.array(draw(st.lists(PLAN_ENTRIES, min_size=horizon * q_in, max_size=horizon * q_in)))
    u_prev = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=q_in, max_size=q_in)))
    tol = draw(st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(0.0, 0.5)))
    return q_in, horizon, bounds, plan, u_prev, tol


@pytest.fixture(scope="module")
def two_input_model():
    return fit_dmdc(discrete_linear_samples(m=40, seed=5, b0=np.array([[0.0, 1.0], [1.0, 0.5]])), 0.1)


@pytest.fixture(scope="module")
def one_input_model():
    return fit_dmdc(discrete_linear_samples(m=40, seed=6), 0.1)


class TestStackedRowCheck:
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @settings(max_examples=400, deadline=None)
    @given(case=feasibility_case())
    def test_equals_box_plus_rate_rows(self, one_input_model, two_input_model, case):
        q_in, horizon, bounds, plan, u_prev, tol = case
        model = one_input_model if q_in == 1 else two_input_model
        cond = CondensedMpc(model, MpcConfig(q=np.eye(2), ru=0.1, rdu=0.1, horizon=horizon, **bounds))
        assert cond.is_feasible(plan, u_prev, tol) == reference_is_feasible(cond, plan, u_prev, tol)

    def test_without_rows_only_a_nan_plan_is_infeasible(self, one_input_model):
        cond = CondensedMpc(one_input_model, MpcConfig(q=np.eye(2), ru=0.1, horizon=3))
        assert cond._rows.shape == (0, 3)
        assert cond.is_feasible(np.zeros(3), np.zeros(1))
        assert not cond.is_feasible(np.array([0.0, np.nan, 0.0]), np.zeros(1))
        assert cond.is_feasible(np.array([0.0, np.inf, 0.0]), np.zeros(1))

    @pytest.mark.parametrize("bounds", [{}, {"du_max": 1.0}])
    def test_lengths_are_checked(self, one_input_model, bounds):
        cond = CondensedMpc(one_input_model, MpcConfig(q=np.eye(2), ru=0.1, horizon=3, **bounds))
        with pytest.raises(InvalidInputError, match="length"):
            cond.is_feasible(np.zeros(3), np.zeros(2))
        with pytest.raises(InvalidInputError, match="length"):
            cond.is_feasible(np.zeros(1), np.zeros(1))

    def test_rows_are_rate_rows_then_finite_box_rows(self, one_input_model):
        cfg = MpcConfig(q=np.eye(2), ru=0.1, horizon=2, u_max=1.0, du_min=-0.5)
        cond = CondensedMpc(one_input_model, cfg)
        assert np.array_equal(cond._rows, [[-1.0, 0.0], [1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(cond._rhs, [0.5, 0.5, 1.0, 1.0])


@st.composite
def partly_finite_bounds(draw):
    q_in = draw(st.integers(1, 2))
    horizon = draw(st.integers(1, 4))

    def side(limit):
        return draw(st.sampled_from([limit, np.inf]))

    bounds = {"u_max": side(1.0), "u_min": -side(1.0), "du_max": side(0.5), "du_min": -side(0.5)}
    return q_in, horizon, bounds


# Values whose scale is subnormal round by whole subnormal steps (5e-324),
# which no relative bound covers. 20,000 subnormal-heavy draws differed from
# the reference arithmetic by at most 3 steps; the floor allows 8.
SUBNORMAL_FLOOR = 8 * np.nextafter(0.0, 1.0)


def assert_stacked_law_is_the_reference_arithmetic(model, horizon, bounds, reference, z0, u_prev):
    cfg = MpcConfig(q=np.eye(2), ru=0.1, rdu=0.1, horizon=horizon, reference=reference, **bounds)
    cond = CondensedMpc(model, cfg)
    n = cond.h.shape[0]
    out = cond._product(z0, u_prev)
    assert out.shape == (2 * n + cond._rows.shape[0],)
    assert cond._gradient(z0, u_prev).tobytes() == out[:n].tobytes()
    g = cond.g_state @ z0 + cond.g_const + cond.g_uprev @ u_prev
    plan = -(cond._h_inv @ g)
    rhs = cond._step_rhs(u_prev)
    # Each value's scale is the sum of the magnitudes of its terms.
    g_scale = abs(cond.g_state) @ abs(z0) + abs(cond.g_const) + abs(cond.g_uprev) @ abs(u_prev)
    plan_scale = abs(cond._h_inv) @ g_scale
    slack_scale = abs(cond._rows) @ plan_scale + abs(cond._rhs) + abs(u_prev).max()
    for got, want, scale in (
        (out[:n], g, g_scale),
        (out[n : 2 * n], plan, plan_scale),
        (out[2 * n :], cond._rows @ plan - rhs, slack_scale),
    ):
        assert np.all(abs(got - want) <= np.maximum(1e-12 * scale, SUBNORMAL_FLOOR))


@settings(max_examples=200, deadline=None)
@given(case=partly_finite_bounds(), data=st.data())
def test_stacked_law_is_the_reference_arithmetic(one_input_model, two_input_model, case, data):
    # One product gives the gradient, the unconstrained plan and every row's slack.
    q_in, horizon, bounds = case
    model = one_input_model if q_in == 1 else two_input_model

    def vector(size, limit):
        return np.array(data.draw(st.lists(st.floats(-limit, limit), min_size=size, max_size=size)))

    reference = vector(2, 2.0)
    z0, u_prev = vector(model.lifted_dim, 10.0), vector(q_in, 10.0)
    assert_stacked_law_is_the_reference_arithmetic(model, horizon, bounds, reference, z0, u_prev)


def test_a_subnormal_lift_meets_the_stacked_law_bound(one_input_model):
    # A drawn example: the plan's last entry lands one subnormal step from the reference's.
    bounds = {"u_max": 1.0, "u_min": -1.0, "du_max": 0.5, "du_min": -0.5}
    assert_stacked_law_is_the_reference_arithmetic(
        one_input_model, 3, bounds, np.zeros(2), np.array([0.0, 5e-324]), np.zeros(1)
    )


@pytest.fixture(scope="module")
def study_models():
    cfg = ExperimentConfig()
    plant, trajectories, dt = make_training_data(cfg)
    return cfg, plant, fit_models(cfg, trajectories, dt)


# Closed loops of 2 s from the default study's models, recorded before the
# condensation was indexed and the row check stacked: ((u_max, du_max), model,
# grid index, total cost, final state, QP iterations, max and sum of KKT residuals).
# Values that moved by more than 1e-12 relative when the unconstrained law became
# one stacked product are recorded from that law: KKT residuals in the last digits,
# and the delay model's final states by up to 7.1e-12. The delay law's residuals
# reach 1.9e-10, because its gradient and plan are now rounded separately.
# The iterations are those of cold solves: a step whose plan the table of
# optimal sets proposes reports 0, and the cold loop of ``cold_loop.py`` keeps the count.
# KKT residuals are recorded with each set's rows factored in ascending order.
RECORDED_LOOPS = [
    ((5.0, 50.0), "dmdc", 0, 645.6810902274366, (-2.2994389561050004, 1.3828516538288358), 12, 1.1102230246251565e-15, 1.7518972383889775e-14),
    ((5.0, 50.0), "dmdc", 31, 26.692738249572592, (-0.12359592488770876, 0.26871215941616133), 0, 2.7755575615628914e-16, 6.086710996333622e-15),
    ((5.0, 50.0), "dmdc", 60, 178.03334602847855, (0.686607414963431, -0.8585867902145224), 0, 8.881784197001252e-16, 1.459943277382081e-14),
    ((5.0, 50.0), "edmdc", 0, 641.3998434855979, (-2.315225624617263, 1.1727955574123479), 3, 1.9984014443252818e-15, 4.8492460047455666e-14),
    ((5.0, 50.0), "edmdc", 31, 27.3332307676794, (-0.37124039556093213, 0.24076113040114594), 0, 4.996003610813204e-16, 1.2101430968414206e-14),
    ((5.0, 50.0), "edmdc", 60, 181.42450251258316, (1.0761855344950295, -0.6576642734269649), 0, 1.3322676295501878e-15, 2.8185787037671162e-14),
    ((5.0, 50.0), "delay", 0, 687.8329040895641, (-2.4673610760015414, 1.283536093534536), 0, 1.8706436399895665e-10, 4.22108899222895e-09),
    ((5.0, 50.0), "delay", 31, 27.275685331184647, (-0.3152251248255675, 0.26124842629019396), 0, 4.028632982766567e-11, 7.132051338398782e-10),
    ((5.0, 50.0), "delay", 60, 212.47480175027226, (1.1710290868383972, -0.8085766211617372), 0, 9.35541644153659e-11, 2.158259187687306e-09),
    ((1.0, 0.5), "dmdc", 0, 705.3791907346686, (-2.701127648032757, 1.3468611432622621), 379, 8.881784197001252e-16, 1.033895191682177e-14),
    ((1.0, 0.5), "dmdc", 31, 26.692738249572592, (-0.12359592488770876, 0.26871215941616133), 0, 2.7755575615628914e-16, 6.086710996333622e-15),
    ((1.0, 0.5), "dmdc", 60, 214.89218656023525, (0.9134361131360482, -1.2907794267862767), 271, 3.3306690738754696e-16, 6.931087648265333e-15),
    ((1.0, 0.5), "edmdc", 0, 702.3971011240465, (-2.6629254850931905, 1.3001944681411066), 346, 8.881784197001252e-16, 8.670147932932082e-15),
    ((1.0, 0.5), "edmdc", 31, 27.336738984815657, (-0.3715018620008834, 0.24088021971003956), 19, 4.440892098500626e-16, 1.052890413744123e-14),
    ((1.0, 0.5), "edmdc", 60, 214.81511390067848, (1.1465776493333901, -1.1594299171522646), 428, 4.440892098500626e-16, 9.114237142782144e-15),
    ((1.0, 0.5), "delay", 0, 715.1152441760819, (-2.7020141704396994, 1.3127651755407397), 337, 3.3306690738754696e-16, 6.682154829462661e-15),
    ((1.0, 0.5), "delay", 31, 27.275685331184647, (-0.3152251248255675, 0.26124842629019396), 0, 4.028632982766567e-11, 7.132051338398782e-10),
    ((1.0, 0.5), "delay", 60, 226.84733451335362, (1.1773211718506862, -1.2042304166050144), 336, 3.608224830031759e-16, 7.716050021144838e-15),
]


@pytest.mark.parametrize("bounds, name, ic, cost, final, iterations, max_kkt, sum_kkt", RECORDED_LOOPS)
def test_closed_loop_reproduces_the_recorded_run(study_models, bounds, name, ic, cost, final, iterations, max_kkt, sum_kkt):
    study, plant, models = study_models
    u_max, du_max = bounds
    cfg = dataclasses.replace(study, u_min=-u_max, u_max=u_max, du_min=-du_max, du_max=du_max)
    x0 = grid_initial_conditions(study)[ic]
    result = closed_loop_run(plant, models[name], mpc_config_from(cfg), x0, 2.0, study.dt)
    kkt = result.solve_stats["kkt_residual"]
    assert result.total_cost == pytest.approx(cost, rel=1e-12, abs=0.0)
    assert result.final_state == pytest.approx(np.array(final), rel=1e-12, abs=0.0)
    cold = cold_closed_loop_run(plant, models[name], mpc_config_from(cfg), x0, 2.0, study.dt)
    hit = result.solve_stats["guess_hit"]
    assert np.array_equal(result.solve_stats["iterations"], np.where(hit, 0, cold.iterations))
    assert int(cold.iterations.sum()) == iterations
    assert float(np.nanmax(kkt)) == pytest.approx(max_kkt, rel=1e-12, abs=0.0)
    assert float(np.nansum(kkt)) == pytest.approx(sum_kkt, rel=1e-12, abs=0.0)


class TestNonFiniteClosedLoopInputs:
    @pytest.fixture(scope="class")
    def setup(self, linear_plant, one_input_model):
        return linear_plant, one_input_model, MpcConfig(q=np.eye(2), ru=0.1, rdu=0.1, horizon=5)

    @pytest.mark.parametrize("t_end, dt", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1), (1.0, np.nan)])
    def test_non_finite_times_raise(self, setup, t_end, dt):
        plant, model, cfg = setup
        with pytest.raises(InvalidInputError, match="finite"):
            closed_loop_run(plant, model, cfg, np.ones(2), t_end, dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_raises_before_the_loop(self, setup, bad):
        plant, model, cfg = setup
        with pytest.raises(InvalidInputError, match="x0 must be finite"):
            closed_loop_run(plant, model, cfg, np.array([1.0, bad]), 1.0, 0.1)

    def test_delay_model_checks_x0_before_its_warm_up(self, vdp_training):
        plant, trajs, _ = vdp_training
        model = fit_delay_augmented(trajs, 3, 0.05)
        cfg = MpcConfig(q=np.eye(2), ru=0.1, horizon=3)
        with pytest.raises(InvalidInputError, match="x0 must be finite"):
            closed_loop_run(plant, model, cfg, np.array([np.nan, 0.0]), 1.0, 0.05)
