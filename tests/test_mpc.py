import copy
import dataclasses

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import koopmpc.mpc
from koopmpc import (
    CondensedMpc,
    ControlSystem,
    ConvergenceError,
    DivergenceError,
    InfeasibleError,
    InvalidInputError,
    LinearControlModel,
    MpcConfig,
    closed_loop_run,
    fit_dmdc,
    fit_edmdc,
    fit_delay_augmented,
    identity_dictionary,
    mpc_step,
    monomials_dictionary,
    simulate,
    snapshots_from_trajectories,
)
from koopmpc.benchmark import fit_models, grid_initial_conditions, make_training_data, mpc_config_from
from koopmpc.config import ExperimentConfig
from koopmpc.dynamics import (
    DIVERGENCE_LIMIT,
    generate_training_trajectories,
    product_sines_family,
)
from koopmpc.errors import KoopmpcError
from koopmpc.io import closed_loop_summary
from koopmpc.numerics import _constraint_rows, solve_qp_info, verify_active_set
from conftest import A0, B0, LinearRhs, ZeroForcing, discrete_linear_samples

from cold_loop import cold_closed_loop_run
from qp_reference import primal_solve_qp_info
from test_numerics import brute_force_qp


def base_cfg(**overrides):
    kwargs = dict(
        q=np.eye(2), ru=0.1, rdu=0.1, horizon=15,
        u_min=-5.0, u_max=5.0, du_min=-50.0, du_max=50.0, reference=np.zeros(2),
    )
    kwargs.update(overrides)
    return MpcConfig(**kwargs)


@pytest.fixture(scope="module")
def linear_model():
    return fit_dmdc(discrete_linear_samples(m=60, seed=1))


@pytest.fixture(scope="module")
def vdp_edmdc(vdp_training):
    _, _, samples = vdp_training
    return fit_edmdc(samples, monomials_dictionary(2, 3))


class TestCondenseQp:
    def test_decoupled_inputs_stay_zero(self, linear_model):
        model = fit_dmdc(
            discrete_linear_samples(m=60, seed=2)
        )
        model.b = np.zeros_like(model.b)
        cfg = base_cfg(horizon=5)
        qp = CondensedMpc(model, cfg).qp(model.lift([1.0, -2.0]), np.zeros(1))
        u, _ = solve_qp_info(qp)
        assert np.max(np.abs(u)) < 1e-10

    def test_single_step_matches_symbolic_minimum(self, linear_model):
        cfg = base_cfg(horizon=1, u_min=-np.inf, u_max=np.inf, du_min=-np.inf, du_max=np.inf)
        x0 = np.array([0.8, -0.4])
        u_prev = np.array([0.3])
        qp = CondensedMpc(linear_model, cfg).qp(linear_model.lift(x0), u_prev)
        u_star = solve_qp_info(qp)[0][0]

        u = sympy.Symbol("u")
        a, b = sympy.Matrix(linear_model.a), sympy.Matrix(linear_model.b)
        x1 = a @ sympy.Matrix(x0) + b * u
        cost = (x1.T @ x1)[0] + sympy.Rational(1, 10) * u**2 \
            + sympy.Rational(1, 10) * (u - sympy.Rational(3, 10)) ** 2
        sol = sympy.solve(sympy.diff(cost, u), u)
        assert abs(u_star - float(sol[0])) < 1e-8

    def test_two_step_with_active_rate_bound_matches_grid(self, linear_model):
        cfg = base_cfg(horizon=2, u_min=-1.0, u_max=1.0, du_min=-0.3, du_max=0.3)
        qp = CondensedMpc(linear_model, cfg).qp(linear_model.lift([2.0, 1.0]), np.zeros(1))
        u, _ = solve_qp_info(qp)
        ref = brute_force_qp(qp)

        def obj(v):
            return 0.5 * v @ qp.h @ v + qp.g @ v

        # The rate bound is active; the solver may not be beaten by the grid.
        assert np.any(np.abs(qp.a_ineq @ u - qp.b_ineq) < 1e-6)
        assert abs(obj(u) - obj(ref)) < 2e-3
        assert obj(ref) >= obj(u) - 1e-9

    def test_dimension_mismatch(self, linear_model):
        cfg = base_cfg()
        with pytest.raises(InvalidInputError):
            CondensedMpc(linear_model, cfg).qp(np.zeros(5), np.zeros(1))


class TestMpcStep:
    def test_zero_input_at_reference(self, linear_model):
        step = mpc_step(linear_model, np.zeros(2), np.zeros(1), base_cfg())
        assert np.max(np.abs(step.u)) < 1e-8

    def test_applied_input_heads_the_plan(self, linear_model):
        step = mpc_step(linear_model, np.array([2.0, -1.0]), np.zeros(1), base_cfg())
        assert step.u[0] == step.input_sequence[0, 0]
        assert step.input_sequence.shape == (1, 15)

    def test_vanderpol_model_respects_bounds(self, vdp_edmdc):
        u_prev = np.zeros(1)
        step = mpc_step(vdp_edmdc, np.array([2.0, 0.0]), u_prev, base_cfg())
        assert abs(step.u[0]) <= 5.0
        assert abs(step.u[0] - u_prev[0]) <= 50.0

    def test_rate_bounds_conflicting_with_box_raise(self, linear_model):
        cfg = base_cfg(du_min=-1.0, du_max=1.0)
        with pytest.raises(InfeasibleError):
            mpc_step(linear_model, np.array([1.0, 1.0]), np.array([100.0]), cfg)

    def test_solver_plan_breaking_rate_bound_raises(self, linear_model, monkeypatch):
        calls = []

        def rate_breaking_solve(qp, x0=None, tol=1e-8):
            calls.append(qp)
            return np.ones(qp.n), {"iterations": 1, "kkt_residual": 0.0}

        monkeypatch.setattr(koopmpc.mpc, "solve_qp_info", rate_breaking_solve)
        cfg = base_cfg(du_min=-0.1, du_max=0.1)
        with pytest.raises(InfeasibleError, match="rate bound"):
            mpc_step(linear_model, np.array([4.0, 4.0]), np.zeros(1), cfg)
        assert len(calls) == 1  # the unconstrained plan broke a bound


@st.composite
def bounded_step(draw, **cfg_overrides):
    """A start state, a previous input inside the box, and random box/rate bounds.

    The bounds are tight enough that many draws have active constraints.
    """
    lo = draw(st.floats(0.2, 3.0))
    hi = draw(st.floats(0.2, 3.0))
    du = draw(st.floats(0.05, 2.0))
    z0 = np.array([draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))])
    u_prev = np.array([-lo + draw(st.floats(0.0, 1.0)) * (lo + hi)])
    cfg = base_cfg(u_min=-lo, u_max=hi, du_min=-du, du_max=du, **cfg_overrides)
    return cfg, z0, u_prev


def plan_of(step):
    return step.input_sequence.T.reshape(-1)


@pytest.fixture(scope="module")
def singular_model(linear_model):
    """Exact linear model whose last planned input moves only x1, at the last step.

    With no weight on x1 and ru = rdu = 0, the condensed Hessian then has a
    zero row and column.
    """
    return dataclasses.replace(linear_model, a=A0, b=B0, c=np.eye(2))


class TestUnconstrainedFastPath:
    QP_TOL = 1e-8

    @settings(max_examples=80, deadline=None)
    @given(case=bounded_step())
    def test_step_matches_active_set_solver(self, linear_model, case):
        cfg, z0, u_prev = case
        step = mpc_step(linear_model, z0, u_prev, cfg, qp_tol=self.QP_TOL)
        qp = CondensedMpc(linear_model, cfg).qp(linear_model.lift(z0), u_prev)
        ref, _ = solve_qp_info(qp, tol=self.QP_TOL)
        # Plans of this strongly convex QP (lambda_min(H) >= 2 ru = 0.2) whose
        # KKT residuals are within 1e-8 differ by at most about 1e-8 / 0.2.
        np.testing.assert_allclose(plan_of(step), ref, rtol=0.0, atol=1e-7)
        assert step.kkt_residual <= self.QP_TOL

    @settings(max_examples=50, deadline=None)
    @given(
        z0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        u_prev=st.floats(-2.0, 2.0),
    )
    def test_accepted_step_reports_its_kkt_residual(self, linear_model, z0, u_prev):
        cfg = base_cfg()  # |u| <= 5 and |du| <= 50 stay inactive from these states
        z0, u_prev = np.array(z0), np.array([u_prev])
        step = mpc_step(linear_model, z0, u_prev, cfg, qp_tol=self.QP_TOL)
        qp = CondensedMpc(linear_model, cfg).qp(linear_model.lift(z0), u_prev)
        assert step.qp_iterations == 0
        assert step.kkt_residual == np.max(np.abs(qp.h @ plan_of(step) + qp.g))
        assert step.kkt_residual <= self.QP_TOL

    def test_singular_hessian_is_rejected(self, singular_model):
        cfg = base_cfg(q=np.diag([1.0, 0.0]), ru=0.0, rdu=0.0)
        with pytest.raises(InvalidInputError, match=r"input_weight \(ru\) or input_rate_weight \(rdu\)"):
            CondensedMpc(singular_model, cfg)
        with pytest.raises(InvalidInputError, match="not positive definite"):
            mpc_step(singular_model, np.ones(2), np.zeros(1), cfg)
        # Any positive input weight makes the Hessian positive definite.
        CondensedMpc(singular_model, base_cfg(q=np.diag([1.0, 0.0]), ru=1e-6, rdu=0.0))


class TestClosedLoop:
    def test_already_at_target_costs_nothing(self, linear_plant):
        trajs, _ = generate_training_trajectories(
            linear_plant, 30, [[-2, 2], [-2, 2]], 1.0, 0.05, product_sines_family(1.0, 5.0), 7
        )
        model = fit_dmdc(snapshots_from_trajectories(trajs, 0.05))
        result = closed_loop_run(linear_plant, model, base_cfg(), np.zeros(2), 2.0, 0.05)
        assert result.total_cost <= 1e-10

    def test_regulates_linear_plant_monotonically(self, linear_plant):
        trajs, _ = generate_training_trajectories(
            linear_plant, 30, [[-2, 2], [-2, 2]], 1.0, 0.05, product_sines_family(1.0, 5.0), 7
        )
        model = fit_dmdc(snapshots_from_trajectories(trajs, 0.05))
        cfg = base_cfg(u_min=-np.inf, u_max=np.inf, du_min=-np.inf, du_max=np.inf)
        result = closed_loop_run(linear_plant, model, cfg, np.array([2.0, 0.0]), 20.0, 0.05)
        norms = np.linalg.norm(result.trajectory.states, axis=0)
        assert norms[-1] < 1e-4
        assert np.all(np.diff(norms[10:]) <= 1e-12)  # monotone after the transient

    def test_constraints_hold_at_every_step(self, vdp_training, vdp_edmdc):
        plant, _, _ = vdp_training
        cfg = base_cfg(du_min=-0.2, du_max=0.2)  # tight enough to activate
        result = closed_loop_run(plant, vdp_edmdc, cfg, np.array([3.0, 0.0]), 5.0, 0.05)
        u = result.trajectory.inputs[0]
        assert np.all(np.abs(u) <= 5.0 + 1e-9)
        du = np.diff(np.concatenate([[0.0], u]))
        assert np.all(du <= 0.2 + 1e-9) and np.all(du >= -0.2 - 1e-9)
        assert np.any(np.abs(np.abs(du) - 0.2) < 1e-8)

    def test_bitwise_determinism(self, vdp_training, vdp_edmdc):
        plant, _, _ = vdp_training
        r1 = closed_loop_run(plant, vdp_edmdc, base_cfg(), np.array([1.0, -1.0]), 2.0, 0.05)
        r2 = closed_loop_run(plant, vdp_edmdc, base_cfg(), np.array([1.0, -1.0]), 2.0, 0.05)
        assert np.array_equal(r1.trajectory.states, r2.trajectory.states)
        assert np.array_equal(r1.trajectory.inputs, r2.trajectory.inputs)
        assert np.array_equal(r1.stage_costs, r2.stage_costs)

    def test_cumulative_cost_nondecreasing(self, vdp_training, vdp_edmdc):
        plant, _, _ = vdp_training
        result = closed_loop_run(plant, vdp_edmdc, base_cfg(), np.array([2.0, 0.0]), 3.0, 0.05)
        assert np.all(np.diff(result.cumulative_cost) >= -1e-15)
        assert np.all(result.stage_costs >= 0.0)

    def test_unforced_vanderpol_never_settles(self, vdp_training, vdp_edmdc):
        plant, _, _ = vdp_training
        cfg = base_cfg()
        controlled = closed_loop_run(plant, vdp_edmdc, cfg, np.array([2.0, 0.0]), 30.0, 0.05)
        assert np.linalg.norm(controlled.final_state) < 0.05
        unforced = simulate(plant, [2.0, 0.0], ZeroForcing(), 30.0, 0.05)
        assert np.linalg.norm(unforced.states[:, -1]) > 0.5  # limit cycle persists
        # Same stage cost accumulated along the unforced run exceeds control.
        err = unforced.states
        unforced_cost = float(np.sum(err[:, :-1] * (cfg.q @ err[:, :-1])))
        assert unforced_cost > controlled.total_cost

    def test_delay_model_warmup(self, vdp_training):
        plant, trajs, _ = vdp_training
        model = fit_delay_augmented(trajs, 5)
        result = closed_loop_run(plant, model, base_cfg(), np.array([1.5, 0.0]), 3.0, 0.05)
        assert result.warmup_steps == 4
        assert np.all(result.trajectory.inputs[:, :4] == 0.0)
        assert result.solve_stats["iterations"][0] == 0

    def test_warmup_input_must_meet_the_rate_bound(self, vdp_training, vdp_edmdc):
        # u in [2, 3] idles the delay warm-up at u = 2, a move of 2 from
        # u_prev = 0 that |du| <= 0.5 forbids, as it forbids edmdc's first plan.
        plant, trajs, _ = vdp_training
        cfg = base_cfg(u_min=2.0, u_max=3.0, du_min=-0.5, du_max=0.5)
        for model, message in (
            (fit_delay_augmented(trajs, 5), r"warm-up input change \[2\.\] breaks the rate bound"),
            (vdp_edmdc, "constraint set is empty"),
        ):
            with pytest.raises(InfeasibleError, match=f"step 0: {message}") as err:
                closed_loop_run(plant, model, cfg, np.array([1.0, 0.0]), 1.0, 0.05)
            assert err.value.partial.trajectory.n_steps == 0

    def test_warmup_input_within_the_rate_bound_runs(self, vdp_training):
        plant, trajs, _ = vdp_training
        cfg = base_cfg(u_min=0.25, u_max=3.0, du_min=-0.5, du_max=0.5)
        result = closed_loop_run(plant, fit_delay_augmented(trajs, 5), cfg, np.array([1.0, 0.0]), 1.0, 0.05)
        assert np.all(result.trajectory.inputs[:, :4] == 0.25)

    @pytest.mark.parametrize("t_end", [0.05, 0.1, 0.2])
    def test_a_loop_no_longer_than_the_warmup_raises(self, vdp_training, t_end):
        plant, trajs, _ = vdp_training
        model = fit_delay_augmented(trajs, 5)
        with pytest.raises(InvalidInputError, match="more than the model's 4 warm-up steps"):
            closed_loop_run(plant, model, base_cfg(), np.array([1.5, 0.0]), t_end, 0.05)
        # One step past the warm-up solves one plan.
        result = closed_loop_run(plant, model, base_cfg(), np.array([1.5, 0.0]), 0.25, 0.05)
        assert np.isnan(result.solve_stats["kkt_residual"][:4]).all()
        assert np.isfinite(result.solve_stats["kkt_residual"][4])

    def test_dt_mismatch_rejected(self, vdp_training, vdp_edmdc):
        plant, _, _ = vdp_training
        with pytest.raises(InvalidInputError):
            closed_loop_run(plant, vdp_edmdc, base_cfg(), np.zeros(2), 1.0, 0.1)

    def test_a_nan_timestep_never_matches(self, vdp_training, vdp_edmdc):
        plant, _, _ = vdp_training
        with pytest.raises(InvalidInputError, match="finite"):
            closed_loop_run(plant, vdp_edmdc, base_cfg(), np.zeros(2), 1.0, float("nan"))
        with pytest.raises(InvalidInputError, match="dt must be positive and finite"):
            dataclasses.replace(vdp_edmdc, dt=float("nan"))
        unchecked = copy.copy(vdp_edmdc)
        unchecked.dt = float("nan")  # past the constructor's check
        with pytest.raises(InvalidInputError, match="does not match"):
            closed_loop_run(plant, unchecked, base_cfg(), np.zeros(2), 1.0, 0.05)

    def test_finite_divergence_carries_partial_run(self):
        # x' = 10 x with u = 0 throughout (zero state weight): the state first
        # passes DIVERGENCE_LIMIT, still finite, at step 28 of 0.05.
        plant = ControlSystem(2, 1, LinearRhs(10.0 * np.eye(2), np.zeros((2, 1))))
        model = LinearControlModel(
            a=np.eye(2), b=np.zeros((2, 1)), c=np.eye(2),
            lifting=identity_dictionary(2), dt=0.05, kind="dmdc",
        )
        cfg = base_cfg(q=np.zeros((2, 2)), ru=1.0, rdu=0.0)
        with pytest.raises(DivergenceError) as exc:
            closed_loop_run(plant, model, cfg, np.array([1.0, -1.0]), 5.0, 0.05)
        partial = exc.value.partial
        assert partial.trajectory.n_steps == 27
        assert partial.stage_costs.shape == (27,)
        assert partial.solve_stats["iterations"].shape == (27,)
        assert np.all(np.abs(partial.trajectory.states) <= DIVERGENCE_LIMIT)
        assert np.all(partial.trajectory.inputs == 0.0)

    def test_an_infeasible_first_step_carries_its_empty_partial_run(self, vdp_training, vdp_edmdc):
        # u in [2, 3] is out of reach of u_prev = 0 under |du| <= 0.5.
        plant, _, _ = vdp_training
        cfg = base_cfg(u_min=2.0, u_max=3.0, du_min=-0.5, du_max=0.5)
        with pytest.raises(InfeasibleError, match="at step 0") as exc:
            closed_loop_run(plant, vdp_edmdc, cfg, np.array([1.0, 0.0]), 1.0, 0.05)
        partial = exc.value.partial
        assert partial.trajectory.n_steps == 0 and partial.stage_costs.size == 0
        assert np.array_equal(partial.trajectory.states[:, 0], [1.0, 0.0])

    @pytest.mark.parametrize("error", [InfeasibleError, ConvergenceError])
    def test_a_failed_solve_carries_the_steps_before_it(self, vdp_training, vdp_edmdc, monkeypatch, error):
        plant, _, _ = vdp_training
        cfg = base_cfg(u_min=-1.0, u_max=1.0, du_min=-0.5, du_max=0.5)
        x0 = np.array([2.0, 0.0])
        full = closed_loop_run(plant, vdp_edmdc, cfg, x0, 2.0, 0.05)
        cold = np.flatnonzero(full.solve_stats["iterations"] > 0)  # the steps that ran the solver
        k = int(cold[cold >= 3][0])
        calls, solve = [], solve_qp_info

        def solve_failing_at_step_k(qp, tol=1e-8):
            calls.append(qp)
            if len(calls) == np.flatnonzero(cold == k)[0] + 1:
                raise error("the solver gave up")
            return solve(qp, tol=tol)

        monkeypatch.setattr(koopmpc.mpc, "solve_qp_info", solve_failing_at_step_k)
        with pytest.raises(error, match=f"^horizon problem failed at step {k}: the solver gave up$") as exc:
            closed_loop_run(plant, vdp_edmdc, cfg, x0, 2.0, 0.05)
        partial = exc.value.partial
        assert partial.trajectory.n_steps == k
        assert partial.trajectory.states.tobytes() == full.trajectory.states[:, : k + 1].tobytes()
        assert partial.trajectory.inputs.tobytes() == full.trajectory.inputs[:, :k].tobytes()
        assert partial.cumulative_cost.tobytes() == full.cumulative_cost[:k].tobytes()
        for key, stat in partial.solve_stats.items():
            assert stat.tobytes() == full.solve_stats[key][:k].tobytes(), key


class TestBounds:
    @pytest.mark.parametrize(
        "side, x0",
        [({"du_min": -0.5}, [-3.0, 1.0]), ({"du_max": 0.5}, [3.0, -1.0])],
        ids=["du_min", "du_max"],
    )
    def test_one_sided_rate_bound_matches_a_far_other_side(self, vdp_training, vdp_edmdc, side, x0):
        plant, _, _ = vdp_training
        one = MpcConfig(np.eye(2), ru=0.1, rdu=0.1, horizon=5, **side)
        far_side = {"du_max": 1e9} if "du_min" in side else {"du_min": -1e9}
        far = MpcConfig(np.eye(2), ru=0.1, rdu=0.1, horizon=5, **side, **far_side)
        assert CondensedMpc(vdp_edmdc, one).a_ineq.shape == (5, 5)  # finite rows only
        got = closed_loop_run(plant, vdp_edmdc, one, np.array(x0), 3.0, 0.05)
        ref = closed_loop_run(plant, vdp_edmdc, far, np.array(x0), 3.0, 0.05)
        assert np.any(got.solve_stats["iterations"] > 0)  # the active-set solver ran
        assert np.array_equal(got.trajectory.inputs, ref.trajectory.inputs)
        assert np.array_equal(got.trajectory.states, ref.trajectory.states)

    @pytest.mark.parametrize("key", ["u_min", "u_max", "du_min", "du_max"])
    def test_bound_of_wrong_length_raises(self, key):
        # A bound is one real number for every input: a sequence of any length is rejected.
        for value in ([-1.0, 2.0], [1.0], np.array([1.0]), np.array(1.0)):
            with pytest.raises(InvalidInputError, match=f"{key} must be a real number"):
                base_cfg(**{key: value})

    @pytest.mark.parametrize("lo, hi", [("u_min", "u_max"), ("du_min", "du_max")])
    def test_bound_pair_of_different_lengths_raises(self, lo, hi):
        with pytest.raises(InvalidInputError, match=f"{lo} must be a real number"):
            MpcConfig(np.eye(2), **{lo: [-1.0, -2.0, -3.0], hi: [1.0, 2.0]})

    @pytest.mark.parametrize("key", ["ru", "rdu", "u_min", "u_max", "du_min", "du_max"])
    @pytest.mark.parametrize("value", [np.eye(1), "0.5", True, None], ids=repr)
    def test_weights_and_bounds_must_be_real_numbers(self, key, value):
        with pytest.raises(InvalidInputError, match=f"{key} must be a real number"):
            base_cfg(**{key: value})

    def test_real_numbers_are_stored_as_floats(self, linear_model):
        cfg = base_cfg(ru=1, rdu=np.float32(0.5), u_min=np.int64(-2), u_max=2, du_min=-np.inf)
        assert [type(getattr(cfg, k)) for k in ("ru", "rdu", "u_min", "u_max", "du_min")] == [float] * 5
        cond = CondensedMpc(linear_model, cfg)
        assert cond.lb.tobytes() == np.full(15, -2.0).tobytes()
        assert cond.ru.tobytes() == np.eye(1).tobytes()

    @pytest.mark.parametrize(
        "override",
        [
            {"reference": [np.nan, 0.0]},
            {"du_max": np.nan},
            {"u_min": np.nan},
            {"q": np.diag([1.0, np.inf])},
            {"ru": np.nan},
        ],
        ids=["reference", "du_max", "u_min", "q", "ru"],
    )
    def test_non_finite_value_raises(self, override):
        with pytest.raises(InvalidInputError, match="finite|NaN"):
            base_cfg(**override)

    @pytest.mark.parametrize("horizon", [2.5, 0, "3"])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        with pytest.raises(InvalidInputError, match="horizon must be an integer >= 1"):
            base_cfg(horizon=horizon)

    def test_infinite_bounds_mean_unbounded(self, linear_model):
        cfg = base_cfg(u_min=-np.inf, u_max=np.inf, du_min=-np.inf, du_max=np.inf)
        assert CondensedMpc(linear_model, cfg).a_ineq is None  # no rate rows



@pytest.mark.filterwarnings("ignore:dropped .* divergent training trajectories")
def test_degenerate_qp_loop_completes():
    # At mu = 2 with tight box and rate bounds, the edmdc step-0 QP from
    # (-4, -3) has a degenerate optimum: more tight rows than the plan has
    # entries, and linearly dependent, on which a primal active-set solver can
    # cycle. The dual solver drops a row itself when it meets a dependent one,
    # so every model's loop runs through.
    cfg = dataclasses.replace(
        ExperimentConfig(), mu=2.0, u_min=-2.0, u_max=2.0, du_min=-0.5, du_max=0.5,
    )
    plant, trajectories, samples = make_training_data(cfg)
    models = fit_models(cfg, trajectories, samples)
    qp = CondensedMpc(models["edmdc"], mpc_config_from(cfg)).qp(
        models["edmdc"].lift([-4.0, -3.0]), np.zeros(1)
    )
    plan, _ = solve_qp_info(qp)
    rows, rhs = _constraint_rows(qp.a_ineq, qp.b_ineq, qp.lb, qp.ub)
    slack = rhs - rows @ plan
    tight = [np.flatnonzero(slack <= tol) for tol in (1e-12, 1e-10, 1e-9, 1e-8)]
    assert all(np.array_equal(t, tight[0]) for t in tight)  # the tight set is not a tolerance artefact
    assert (plan.size, tight[0].size, np.linalg.matrix_rank(rows[tight[0]])) == (15, 16, 15)
    for name, model in models.items():
        result = closed_loop_run(plant, model, mpc_config_from(cfg), np.array([-4.0, -3.0]), 10.0, cfg.dt)
        assert result.stage_costs.size == 200, name
        assert np.nanmax(result.solve_stats["kkt_residual"]) <= 1e-8, name
        if name == "edmdc":
            # Every step left the unconstrained law: the solver ran or a guess was verified.
            assert np.all((result.solve_stats["iterations"] > 0) | result.solve_stats["guess_hit"])


class TestPartialStateWeights:
    @pytest.fixture(scope="class")
    def x1_delay(self, vdp_training):
        _, trajs, _ = vdp_training
        return fit_delay_augmented(trajs, 3, coords=(0,))

    def test_plant_weight_is_taken_at_recovered_coordinates(self, x1_delay):
        full = base_cfg(q=np.array([[2.0, 0.5], [0.5, 3.0]]), reference=np.array([0.25, -1.0]))
        sub = base_cfg(q=np.array([[2.0]]), reference=np.array([0.25]))
        got, want = koopmpc.mpc.condensed(x1_delay, full), koopmpc.mpc.condensed(x1_delay, sub)
        for attr in ("h", "g_state", "g_const", "g_uprev"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        # Equal condensations, but of different configs: the memo keeps both.
        assert got is not want and koopmpc.mpc.condensed(x1_delay, copy.deepcopy(full)) is got

    def test_other_weight_sizes_still_raise(self, x1_delay, linear_model):
        with pytest.raises(InvalidInputError):
            CondensedMpc(x1_delay, base_cfg(q=np.eye(3), reference=np.zeros(3)))
        with pytest.raises(InvalidInputError):
            CondensedMpc(linear_model, base_cfg(q=np.eye(3), reference=np.zeros(3)))

    def test_stage_cost_weights_the_full_plant_state(self, vdp_training, x1_delay):
        plant, _, _ = vdp_training
        cfg = base_cfg(q=np.diag([1.0, 2.0]), rdu=0.0)
        result = closed_loop_run(plant, x1_delay, cfg, np.array([1.5, 0.5]), 1.0, 0.05)
        x, u = result.trajectory.states[:, :-1], result.trajectory.inputs
        expected = x[0] ** 2 + 2.0 * x[1] ** 2 + 0.1 * u[0] ** 2
        assert np.allclose(result.stage_costs, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
def test_nan_measurement_raises_before_the_solver(vdp_training, monkeypatch, kind):
    plant, trajs, samples = vdp_training
    model = {
        "dmdc": lambda: fit_dmdc(samples),
        "edmdc": lambda: fit_edmdc(samples, monomials_dictionary(2, 3)),
        "delay": lambda: fit_delay_augmented(trajs, 3),
    }[kind]()

    def unreachable(*args, **kwargs):
        raise AssertionError("a non-finite QP reached the solver")

    monkeypatch.setattr(koopmpc.mpc, "solve_qp_info", unreachable)
    history = dict(history_states=np.ones((2, 5)), history_inputs=np.zeros((1, 5)))
    cfg = base_cfg(u_min=-0.1, u_max=0.1)  # tight: finite states would need the solver
    # Dictionary liftings reject the measurement themselves; the delay
    # lifting passes it through, and the gradient check stops it.
    with pytest.raises(InvalidInputError, match="non-finite|not finite"):
        mpc_step(model, np.array([np.nan, 1.0]), np.zeros(1), cfg, **history)
    with pytest.raises(InvalidInputError, match="not finite"):
        mpc_step(model, np.ones(2), np.array([np.inf]), cfg, **history)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_qp_tolerance_must_be_positive_and_finite(vdp_training, vdp_edmdc, tol):
    plant, _, _ = vdp_training
    # Saturated bounds, so the steps need the solver that a NaN tolerance used to skip.
    cfg = base_cfg(u_min=-1.0, u_max=1.0, du_min=-0.5, du_max=0.5)
    cond = CondensedMpc(vdp_edmdc, cfg)
    x, u_prev = np.array([3.0, -2.0]), np.zeros(1)
    z0 = vdp_edmdc.lift(x)
    with pytest.raises(InvalidInputError, match="tol must be positive and finite"):
        solve_qp_info(cond.factored_qp(cond._gradient(z0, u_prev), u_prev), tol=tol)
    with pytest.raises(InvalidInputError, match="tol must be positive and finite"):
        solve_qp_info(cond.qp(z0, u_prev), tol=tol)
    with pytest.raises(InvalidInputError, match="qp_tol must be positive and finite"):
        mpc_step(vdp_edmdc, x, u_prev, cfg, qp_tol=tol)
    with pytest.raises(InvalidInputError, match="qp_tol must be positive and finite"):
        closed_loop_run(plant, vdp_edmdc, cfg, x, 1.0, 0.05, qp_tol=tol)


@settings(max_examples=80, deadline=None)
@given(
    bounds=st.sampled_from([(5.0, 50.0), (1.0, 0.5)]),  # default and saturated
    x=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    u_prev=st.floats(-1.0, 1.0),
)
def test_dual_solver_matches_primal_reference_on_mpc_qps(vdp_edmdc, bounds, x, u_prev):
    u_max, du_max = bounds
    cfg = base_cfg(u_min=-u_max, u_max=u_max, du_min=-du_max, du_max=du_max)
    cond = CondensedMpc(vdp_edmdc, cfg)
    z0, u_prev = vdp_edmdc.lift(np.array(x)), np.array([u_prev])
    plan, info = solve_qp_info(cond.factored_qp(cond._gradient(z0, u_prev), u_prev))
    ref, _ = primal_solve_qp_info(cond.qp(z0, u_prev))
    np.testing.assert_allclose(plan, ref, rtol=0.0, atol=1e-9)
    assert info["kkt_residual"] <= 1e-8


@pytest.fixture(scope="module")
def guess_studies():
    """(config, plant, models) of the study at |u| <= 1, |du| <= 0.5, and at the mu = 2 config."""
    out = {}
    for label, overrides in (
        ("saturated", dict(u_min=-1.0, u_max=1.0, du_min=-0.5, du_max=0.5)),
        ("mu2", dict(mu=2.0, u_min=-2.0, u_max=2.0, du_min=-0.5, du_max=0.5)),
    ):
        cfg = dataclasses.replace(ExperimentConfig(), ic_grid_n=3, **overrides)
        plant, trajectories, samples = make_training_data(cfg)
        out[label] = (cfg, plant, fit_models(cfg, trajectories, samples))
    return out


@pytest.mark.filterwarnings("ignore:dropped .* divergent training trajectories")
class TestActiveSetGuesses:
    # Whole-loop cost tolerance against the cold loop. At mu = 2 the plan at
    # a degenerate vertex depends on which of several optimal active sets is
    # verified, by about 1e-14; the delay model's cold solves amplify such
    # state differences to about 5e-7 in later plans (4.4e-9 relative in cost
    # from (0, -4)), as they would any rounding difference.
    COST_RTOL = {"saturated": 1e-9, "mu2": 1e-7}

    @pytest.mark.parametrize("study", ["saturated", "mu2"])
    @pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
    def test_loop_equals_the_cold_loop(self, guess_studies, monkeypatch, study, kind):
        cfg, plant, models = guess_studies[study]
        model, mpc_cfg = models[kind], mpc_config_from(cfg)
        calls, plan_unpatched = [], CondensedMpc.plan

        def recording_plan(cond, *args):
            out = plan_unpatched(cond, *args)
            calls.append((cond, args, out))
            return out

        monkeypatch.setattr(CondensedMpc, "plan", recording_plan)
        hits = 0
        for x0 in grid_initial_conditions(cfg):
            calls.clear()
            try:
                got = closed_loop_run(plant, model, mpc_cfg, x0, 3.0, cfg.dt)
            except KoopmpcError as err:
                got = type(err).__name__
            steps = list(calls)
            try:
                want = cold_closed_loop_run(plant, model, mpc_cfg, x0, 3.0, cfg.dt)
            except KoopmpcError as err:
                want = type(err).__name__
            if isinstance(want, str) or isinstance(got, str):
                assert got == want
                continue
            # Every step planned once, and against a cold solve of the same step.
            assert len(steps) == got.stage_costs.size - got.warmup_steps > 0
            for cond, (z0, u_prev, qp_tol, _), (_, plan, iterations, _, _, hit) in steps:
                cold_plan, cold_iterations = plan_unpatched(cond, z0, u_prev, qp_tol, None)[1:3]
                np.testing.assert_allclose(plan, cold_plan, rtol=0.0, atol=1e-12)
                assert iterations == (0 if hit else cold_iterations)
                assert not hit or cold_iterations > 0
            hit = got.solve_stats["guess_hit"]
            hits += int(hit.sum())
            assert (np.linalg.norm(got.final_state) < cfg.success_threshold) == (
                np.linalg.norm(want.states[:, -1]) < cfg.success_threshold
            )
            assert got.total_cost == pytest.approx(want.total_cost, rel=self.COST_RTOL[study], abs=0.0)
        assert hits > 0

    def test_summary_counts_the_verified_guesses(self, guess_studies):
        cfg, plant, models = guess_studies["saturated"]
        result = closed_loop_run(plant, models["edmdc"], mpc_config_from(cfg), np.array([-4.0, -4.0]), 3.0, cfg.dt)
        summary = closed_loop_summary(result, success_threshold=cfg.success_threshold)
        stats = result.solve_stats
        assert summary["qp_guess_hits"] == int(stats["guess_hit"].sum()) > 0
        assert summary["qp_iterations_total"] == int(stats["iterations"].sum())
        assert np.all(stats["iterations"][stats["guess_hit"]] == 0)

    def test_wrong_guesses_at_the_degenerate_vertex_fall_back(self, guess_studies):
        # The mu = 2 step-0 QP of test_degenerate_qp_loop_completes: 16 rows
        # of rank 15 are tight at the optimum. Any guess holding a row that is
        # slack there is wrong and must fall back. Guesses made only of tight
        # rows, all 16 included (a singular KKT system), raise nothing and may
        # pass only with the optimal plan.
        cfg, _, models = guess_studies["mu2"]
        cond = CondensedMpc(models["edmdc"], mpc_config_from(cfg))
        z0, u_prev = models["edmdc"].lift([-4.0, -3.0]), np.zeros(1)
        qp = cond.factored_qp(cond._gradient(z0, u_prev), u_prev)
        plan, info = solve_qp_info(qp)
        slack = qp.rhs - qp.rows @ plan
        tight, loose = np.flatnonzero(slack <= 1e-9), np.flatnonzero(slack > 1e-9)
        assert (tight.size, len(info["active"])) == (16, 15)
        assert np.array_equal(verify_active_set(qp, info["active"])[0], plan)
        for k in range(len(info["active"])):
            for row in loose:
                guess = list(info["active"])
                guess[k] = row
                assert verify_active_set(qp, guess) is None, (k, row)
        for guess in [tight, *(np.delete(tight, k) for k in range(tight.size))]:
            hit = verify_active_set(qp, guess)
            assert hit is None or np.allclose(hit[0], plan, rtol=0.0, atol=1e-12)

    def test_a_shifted_guess_on_two_rows_of_one_input_falls_back(self, linear_model):
        # Rate row 1 (u_1 - u_0) and box row 1 (u_1) shift onto rate row 0 and
        # box row 0, which both hold u_0 alone: a singular KKT system.
        cfg = base_cfg(u_min=-0.5, u_max=0.5, du_min=-0.2, du_max=0.2)
        cond = CondensedMpc(linear_model, cfg)
        n_rate = cond._rate_bound.size
        guess = (1, n_rate + 1)
        assert cond.shift_active(guess) == (0, n_rate)
        x, u_prev = np.array([3.0, -2.0]), np.array([0.4])
        qp = cond.factored_qp(cond._gradient(linear_model.lift(x), u_prev), u_prev)
        assert verify_active_set(qp, (0, n_rate)) is None
        step = mpc_step(linear_model, x, u_prev, cfg, active_guess=guess)
        cold = mpc_step(linear_model, x, u_prev, cfg)
        assert not step.guess_hit and step.qp_iterations == cold.qp_iterations > 0
        assert np.array_equal(step.input_sequence, cold.input_sequence)
        assert step.active_set == cold.active_set

    def test_a_step_reports_how_its_plan_was_found(self, linear_model):
        cfg = base_cfg(u_min=-0.5, u_max=0.5, du_min=-0.2, du_max=0.2)
        x, u_prev = np.array([3.0, -2.0]), np.array([0.4])
        cold = mpc_step(linear_model, x, u_prev, cfg)
        assert not cold.guess_hit and cold.active_set
        warm = mpc_step(linear_model, x, u_prev, cfg, active_guess=cold.active_set)
        assert warm.guess_hit and warm.qp_iterations == 0 and warm.active_set == cold.active_set
        assert np.array_equal(warm.input_sequence, cold.input_sequence)
        free = mpc_step(linear_model, np.zeros(2), np.zeros(1), cfg, active_guess=cold.active_set)
        assert free.active_set is None and not free.guess_hit and free.qp_iterations == 0
