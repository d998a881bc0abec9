"""Closed loop without stored optimal sets: the reference the loop is tested against.

Every step lifts the measurement, takes the unconstrained law when it meets
every row and its stationarity residual is within ``qp_tol`` (as
``CondensedMpc.plan`` does), and otherwise sends the step's QP straight to
the cold dual solve, ``solve_qp_info``. The condensation's table of
optimal sets cannot reach it, and it records nothing in that table. It keeps every step's plan, and raises the loop's typed
errors without partial results.
"""

from dataclasses import dataclass

import numpy as np

from koopmpc.dynamics import _n_steps, rk4_step
from koopmpc.mpc import _stage_costs, condensed
from koopmpc.numerics import solve_qp_info


@dataclass
class ColdLoop:
    states: np.ndarray        # (n, steps + 1)
    inputs: np.ndarray        # (q, steps)
    plans: list               # (q, N) plan per step; None on delay warm-up steps
    stage_costs: np.ndarray
    iterations: np.ndarray
    kkt_residual: np.ndarray

    @property
    def total_cost(self):
        return float(np.cumsum(self.stage_costs)[-1])


def cold_plan(cond, z0, u_prev, qp_tol=1e-8):
    """One step's ``(plan, iterations, kkt_residual)`` by the unconstrained law or else a cold solve."""
    n = cond.h.shape[0]
    out = cond._product(z0, u_prev)
    g, plan = out[:n], out[n : 2 * n]
    if (out[2 * n :] <= 0.0).all():
        residual = float(np.abs(cond.h @ plan + g).max())
        if residual <= qp_tol:
            return plan, 0, residual
    plan, info = solve_qp_info(cond.factored_qp(g, u_prev), qp_tol)
    return plan, info["iterations"], info["kkt_residual"]


def cold_closed_loop_run(plant, model, cfg, x0, t_end, dt, qp_tol=1e-8):
    n_steps = _n_steps(t_end, dt)
    q_in = model.input_dim
    warmup = model.lifting.history_steps
    cond = condensed(model, cfg)
    lo, hi = cond.lb[:q_in], cond.ub[:q_in]
    x = np.asarray(x0, dtype=float).reshape(-1)
    states = np.empty((plant.state_dim, n_steps + 1))
    inputs = np.empty((q_in, n_steps))
    stage = np.empty(n_steps)
    iters = np.zeros(n_steps, dtype=int)
    resid = np.full(n_steps, np.nan)
    plans = [None] * n_steps
    states[:, 0] = x
    u_prev = np.zeros(q_in)
    times = np.arange(n_steps + 1) * dt
    u_idle = np.clip(np.zeros(q_in), lo, hi)
    for k in range(n_steps):
        if k < warmup:
            u = u_idle.copy()
        else:
            z0 = model.lift(x, history_states=states[:, :k], history_inputs=inputs[:, :k])
            plan, iters[k], resid[k] = cold_plan(cond, z0, u_prev, qp_tol)
            u = plan[:q_in].clip(lo, hi)
            cond.check_move(u, u_prev, "first planned input change")
            plans[k] = plan.reshape(cond.horizon, q_in).T.clip(lo[:, None], hi[:, None])
        inputs[:, k] = u
        stage[k] = _stage_costs(cfg, x[:, None], u[:, None], u_prev[:, None])[0]
        x = rk4_step(plant, x, u, times[k], dt)
        states[:, k + 1] = x
        u_prev = u
    return ColdLoop(states, inputs, plans, stage, iters, resid)
