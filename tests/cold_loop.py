"""Closed loop without active-set guesses: the reference the guessed loop is tested against.

This is ``closed_loop_run``'s loop as it was before verified active-set
guesses: every step that leaves the unconstrained law goes to the cold dual
solve. It keeps every step's plan, and raises the loop's typed errors without
partial results.
"""

from dataclasses import dataclass

import numpy as np

from koopmpc.dynamics import _n_steps, rk4_step
from koopmpc.mpc import CondensedMpc, _stage_cost, mpc_step


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


def cold_closed_loop_run(plant, model, cfg, x0, t_end, dt, qp_tol=1e-8):
    n_steps = _n_steps(t_end, dt)
    q_in = model.input_dim
    warmup = model.lifting.history_steps
    cond = CondensedMpc(model, cfg)
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
    u_idle = np.clip(np.zeros(q_in), cond.lb[:q_in], cond.ub[:q_in])
    for k in range(n_steps):
        if k < warmup:
            u = u_idle.copy()
        else:
            step = mpc_step(model, x, u_prev, cfg, history_states=states[:, :k],
                            history_inputs=inputs[:, :k], qp_tol=qp_tol, _condensed=cond)
            u, plans[k] = step.u, step.input_sequence
            iters[k], resid[k] = step.qp_iterations, step.kkt_residual
        inputs[:, k] = u
        stage[k] = _stage_cost(cond, x, u, u_prev)
        x = rk4_step(plant, x, u, times[k], dt)
        states[:, k + 1] = x
        u_prev = u
    return ColdLoop(states, inputs, plans, stage, iters, resid)
