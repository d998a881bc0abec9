"""The table of optimal active sets that each condensation keeps.

The table is the one warm path of ``CondensedMpc.plan``: a step that leaves
the unconstrained law asks it for one proposal (its most recently recorded
set if that set's law passes, else the first stored set that passes the
screen) and takes that proposal only through the set's stored KKT factor,
with the arithmetic and bits of ``verify_active_set``, before the cold
solve. So the table may change which path finds a plan and how many
solver iterations a step reports, not the plan: away from degenerate
vertices, a loop on a warm table gives the bits of the same loop on an empty
one.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koopmpc.mpc
import koopmpc.numerics
from koopmpc import (
    CondensedMpc,
    MpcConfig,
    closed_loop_run,
    fit_delay_augmented,
    fit_dmdc,
    fit_edmdc,
    monomials_dictionary,
)
from koopmpc.mpc import ActiveSetTable, condensed
from koopmpc.numerics import _kkt_factor, verify_active_set

from cold_loop import cold_plan
from conftest import discrete_linear_samples

BOUNDS = {
    "default": dict(u_min=-5.0, u_max=5.0, du_min=-50.0, du_max=50.0),
    "saturated": dict(u_min=-1.0, u_max=1.0, du_min=-0.5, du_max=0.5),
}
DT = 0.05
QP_TOL = 1e-8
WARM_UP_ICS = [(-4.0, -4.0), (4.0, 4.0), (-4.0, 4.0), (4.0, -4.0), (2.0, 0.0)]


def mpc_cfg(bounds, **overrides):
    return MpcConfig(**dict(q=np.eye(2), ru=0.1, rdu=0.1, horizon=15, **BOUNDS[bounds], **overrides))


@pytest.fixture(scope="module")
def models(vdp_training):
    _, trajs, dt = vdp_training
    return {
        "dmdc": fit_dmdc(trajs, dt),
        "edmdc": fit_edmdc(trajs, monomials_dictionary(2, 3), dt),
        "delay": fit_delay_augmented(trajs, 3, dt),
    }


def stored_law(cond, active):
    """``(L_A, D_A)`` of a stored set: multipliers ``L_A w`` and plan ``u* + D_A w``."""
    table = cond._table
    slot = table._slots[tuple(sorted(active))]
    k = len(active)
    assert list(table._index[slot, :k]) == list(active)
    lam = table._laws[slot, :k]
    return lam, -(cond._h_inv @ cond._rows[list(active)].T @ lam)


def kkt_factor(cond, active):
    """The KKT factor of ``active``, rows as given, that a cold solve ending on it reports."""
    return _kkt_factor(cond.h, cond._rows[list(active)])


def record_of(result):
    return dict(states=result.trajectory.states, inputs=result.trajectory.inputs, stage=result.stage_costs)


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
@settings(max_examples=8, deadline=None)
@given(x0=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
@example(x0=(-3.0, 3.5))
@example(x0=(4.0, 0.0))
def test_a_warm_table_changes_no_plan_bit(vdp_training, models, kind, bounds, x0):
    plant, model, cfg = vdp_training[0], models[kind], mpc_cfg(bounds)
    koopmpc.mpc._condensations.clear()
    cold = closed_loop_run(plant, model, cfg, np.array(x0), 1.0, DT)
    koopmpc.mpc._condensations.clear()
    for ic in WARM_UP_ICS:
        closed_loop_run(plant, model, cfg, np.array(ic), 1.0, DT)
    warm = closed_loop_run(plant, model, cfg, np.array(x0), 1.0, DT)
    for key, want in record_of(cold).items():
        assert record_of(warm)[key].tobytes() == want.tobytes(), key
    # Both paths take a set's rows in ascending order, but a proposal can be
    # another optimal set of the vertex with the same plan bits and another
    # residual: on the saturated delay model from (-3.773, -3.006), step 2
    # verifies rows (0, 31, 32, 33, 34) at 4.4e-16 where the cold solve ends
    # on (0, 1, 32, 33, 34) at 2.2e-16.
    kkt = warm.solve_stats["kkt_residual"], cold.solve_stats["kkt_residual"]
    np.testing.assert_allclose(*kkt, rtol=0.0, atol=1e-12)
    assert np.all(np.isnan(kkt[0]) | (kkt[0] <= QP_TOL))


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
def test_every_table_hit_is_the_plan_verify_active_set_gives(vdp_training, models, monkeypatch, kind, bounds):
    plant, model, cfg = vdp_training[0], models[kind], mpc_cfg(bounds)
    for ic in WARM_UP_ICS:
        closed_loop_run(plant, model, cfg, np.array(ic), 1.0, DT)
    proposals, propose = [], ActiveSetTable.propose

    def recording_propose(self, w, slack, tol):
        active = propose(self, w, slack, tol)
        proposals.append((w.copy(), active))  # the loop reuses its step vector
        return active

    monkeypatch.setattr(ActiveSetTable, "propose", recording_propose)
    calls, plan = [], CondensedMpc.plan

    def recording_plan(cond, w, qp_tol):
        proposals.clear()
        out = plan(cond, w, qp_tol)
        calls.append((cond, (w.copy(), qp_tol), out, list(proposals)))
        return out

    monkeypatch.setattr(CondensedMpc, "plan", recording_plan)
    hits = 0
    for x0 in [(-3.0, 3.5), (1.5, -2.5), (-0.5, -3.0)]:
        calls.clear()
        closed_loop_run(plant, model, cfg, np.array(x0), 1.0, DT)
        for cond, (w_step, qp_tol), (_, sol, iterations, residual, active, hit), asked in calls:
            if not asked or asked[0][1] is None:
                continue
            u_prev = w_step[cond.lifted_dim + 1 :]
            (w, proposed), = asked
            qp = cond.factored_qp(cond._gradient(w_step[: cond.lifted_dim], u_prev), u_prev)
            verified = verify_active_set(qp, proposed, qp_tol)
            if verified is None:  # a rejected proposal: the step went to the cold solve
                assert not hit and active != proposed
                continue
            hits += 1
            assert hit and iterations == 0 and active == proposed
            assert sol.tobytes() == verified[0].tobytes() and residual == verified[1]
            # The stored law gives the same plan, and its screen passed.
            n = cond.h.shape[0]
            out = cond._stack @ w
            lam, dplan = stored_law(cond, proposed)
            law_plan = out[n : 2 * n] + dplan @ w
            scale = np.abs(cond._stack[n : 2 * n]) @ np.abs(w) + np.abs(dplan) @ np.abs(w)
            assert np.all(np.abs(law_plan - sol) <= 1e-9 * scale)
            assert np.min(lam @ w) >= -np.sqrt(qp_tol)
    if bounds == "saturated":
        assert hits > 0


def test_the_table_keeps_the_most_recently_recorded_sets(models, monkeypatch):
    monkeypatch.setattr(koopmpc.mpc, "_ACTIVE_SETS_MAX", 4)
    cond = CondensedMpc(models["dmdc"], mpc_cfg("saturated"))
    table = cond._table
    box_up = cond._rows.shape[0] // 2  # rows: rate up, rate down, box up, box down, 15 each
    sets = [(box_up + k,) for k in range(4)] + [(k, box_up + k + 1) for k in range(2)]
    for active in sets[:4]:
        table.record(active, kkt_factor(cond, active))
    table.record(sets[0])  # recorded again: now the most recent
    table.record(sets[4], kkt_factor(cond, sets[4]))  # evicts sets[1]
    table.record(sets[5], kkt_factor(cond, sets[5]))  # evicts sets[2]
    kept = [sets[3], sets[0], sets[4], sets[5]]
    assert len(table._slots) == len(table._active) == 4
    assert list(table._slots) == [tuple(sorted(a)) for a in kept]  # least recent first
    for active in kept:  # every slot holds its own set's law
        slot = table._slots[tuple(sorted(active))]
        assert table._active[slot] == active
        assert list(table._index[slot, : len(active)]) == list(active)


def test_exactly_the_stored_slots_hold_factors(models, monkeypatch):
    monkeypatch.setattr(koopmpc.mpc, "_ACTIVE_SETS_MAX", 4)
    cond = CondensedMpc(models["dmdc"], mpc_cfg("saturated"))
    table = cond._table
    box_up = cond._rows.shape[0] // 2
    sets = [(box_up + k,) for k in range(4)] + [(k, box_up + k + 1) for k in range(3)]
    given = {active: kkt_factor(cond, active) for active in sets}
    for active in sets[:4]:
        table.record(active, given[active])
    for active in sets[4:]:  # evicts sets[0], sets[1] and sets[2]
        table.record(active, given[active])
    assert len(table._factors) == len(table._active) == len(table._slots) == 4
    for slot in table._slots.values():  # each slot keeps the factor recorded with its own set
        assert table._factors[slot] is given[table._active[slot]]
    for evicted in sets[:3]:
        assert tuple(sorted(evicted)) not in table._slots
        assert not any(kept is given[evicted] for kept in table._factors)


@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
def test_a_stored_factor_is_the_one_its_cold_solve_made(vdp_training, models, monkeypatch, kind):
    plant, model, cfg = vdp_training[0], models[kind], mpc_cfg("saturated")
    made, reported = [], []
    solve, factor = koopmpc.mpc.solve_qp_info, koopmpc.numerics._kkt_factor

    def counting_factor(h, aw):
        made.append(1)
        return factor(h, aw)

    def recording_solve(qp, tol):
        before = len(made)
        x, info = solve(qp, tol=tol)
        assert len(made) == before + 1  # one factorization per cold solve
        reported.append(info["kkt_factor"])
        return x, info

    monkeypatch.setattr(koopmpc.numerics, "_kkt_factor", counting_factor)
    monkeypatch.setattr(koopmpc.mpc, "solve_qp_info", recording_solve)
    koopmpc.mpc._condensations.clear()
    for ic in WARM_UP_ICS:
        closed_loop_run(plant, model, cfg, np.array(ic), 1.0, DT)
    table = condensed(model, cfg)._table
    assert table._slots and len(made) == len(reported)  # a table hit factors nothing
    for slot in table._slots.values():
        assert any(table._factors[slot] is f for f in reported)


@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
def test_a_small_table_gives_the_loop_of_a_large_one(vdp_training, models, monkeypatch, kind):
    plant, model, cfg = vdp_training[0], models[kind], mpc_cfg("saturated")
    want = [closed_loop_run(plant, model, cfg, np.array(ic), 1.0, DT) for ic in WARM_UP_ICS]
    koopmpc.mpc._condensations.clear()
    monkeypatch.setattr(koopmpc.mpc, "_ACTIVE_SETS_MAX", 3)
    for ic, full in zip(WARM_UP_ICS, want):
        got = closed_loop_run(plant, model, cfg, np.array(ic), 1.0, DT)
        assert len(condensed(model, cfg)._table._slots) <= 3
        for key, val in record_of(full).items():
            assert record_of(got)[key].tobytes() == val.tobytes(), key


@pytest.fixture(scope="module")
def linear_model():
    return fit_dmdc(discrete_linear_samples(m=60, seed=1), 0.1)


@settings(max_examples=40, deadline=None)
@given(
    step=st.integers(1, 4),
    extra=st.lists(st.integers(0, 19), max_size=3, unique=True),
    x=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    u_prev=st.floats(-0.5, 0.5),
)
def test_a_set_with_dependent_rows_is_never_stored_and_breaks_no_step(linear_model, step, extra, x, u_prev):
    # Rate row k holds u_k - u_{k-1} and the box rows hold u_k and -u_{k-1}:
    # the rate row is the sum of the other two, so a set holding all three is dependent.
    cfg = MpcConfig(q=np.eye(2), ru=0.1, rdu=0.1, horizon=5, u_min=-0.5, u_max=0.5, du_min=-0.2, du_max=0.2)
    koopmpc.mpc._condensations.clear()
    cond = condensed(linear_model, cfg)
    n = cond.h.shape[0]
    dependent = {step, 2 * n + step, 3 * n + step - 1}  # rate up k, box up k, box down k - 1
    active = tuple(sorted(dependent | set(extra)))
    cond._table.record(active)
    assert len(cond._table._slots) == 0
    z0, u_prev = linear_model.lift(np.array(x)), np.array([u_prev])
    sol = cond.plan(cond._w(z0, u_prev), QP_TOL)[1]
    np.testing.assert_allclose(sol, cold_plan(cond, z0, u_prev, QP_TOL)[0], rtol=0.0, atol=1e-12)
    assert not any(dependent <= set(key) for key in cond._table._slots)


@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
def test_a_step_verifies_at_most_one_set(vdp_training, models, monkeypatch, kind):
    plant, model, cfg = vdp_training[0], models[kind], mpc_cfg("saturated")
    verified, steps = [], []
    verify, plan = ActiveSetTable.verify, CondensedMpc.plan

    def counting_verify(table, qp, active, tol):
        verified.append(active)
        return verify(table, qp, active, tol)

    def counting_plan(cond, *args):
        before = len(verified)
        out = plan(cond, *args)
        steps.append((len(verified) - before, out[4], out[5]))
        return out

    monkeypatch.setattr(ActiveSetTable, "verify", counting_verify)
    monkeypatch.setattr(CondensedMpc, "plan", counting_plan)
    for ic in WARM_UP_ICS:
        closed_loop_run(plant, model, cfg, np.array(ic), 1.0, DT)
    for calls, active, hit in steps:
        # A step on the unconstrained law verifies nothing; any other verifies the table's one proposal.
        assert calls <= (active is not None)
        assert calls == 1 or not hit
    assert any(hit for _, _, hit in steps)


@pytest.fixture(scope="module")
def warm_tables(vdp_training, models):
    """Per kind: a saturated condensation warmed by the WARM_UP_ICS loops, and the ``w`` of each step that asked its table."""
    plant, out = vdp_training[0], {}
    propose = ActiveSetTable.propose
    for kind, model in models.items():
        asked = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(koopmpc.mpc, "_condensations", {})
            mp.setattr(ActiveSetTable, "propose", lambda self, w, *args: asked.append(w.copy()) or propose(self, w, *args))
            for ic in WARM_UP_ICS:
                closed_loop_run(plant, model, mpc_cfg("saturated"), np.array(ic), 1.0, DT)
            out[kind] = condensed(model, mpc_cfg("saturated")), asked
    return out


def screen_passes(table, w, slack, tol):
    """Per stored slot, whether its law passes at ``w``, by the screen's product over every slot."""
    count, n = len(table._active), table._n
    lam = (table._laws[:count].reshape(count * n, -1) @ w).reshape(count, n)
    on_rows = np.zeros((count, table._gram.shape[0]))
    on_rows[np.arange(count)[:, None], table._index[:count]] = lam
    return (lam >= -tol).all(axis=1) & (slack - on_rows @ table._gram <= tol).all(axis=1)


@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
@settings(max_examples=60, deadline=None)
@given(
    step=st.integers(0, 10**6),
    pick=st.integers(-1, 10**6),
    scale=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_the_recent_set_is_proposed_only_where_the_screen_passes_it(warm_tables, kind, step, pick, scale, seed, bad):
    cond, asked = warm_tables[kind]
    table, n, tol = cond._table, cond.h.shape[0], np.sqrt(QP_TOL)
    w = asked[step % len(asked)]
    w = w + scale * np.abs(w).max() * np.random.default_rng(seed).standard_normal(w.size)
    slack = cond._stack[2 * n :] @ w
    # Make a stored set the most recent: the one the screen proposes at w (pick -1), or any other.
    recent = table._screen(w, slack, tol) if pick < 0 else None
    recent = recent or table._active[pick % len(table._active)]
    table.record(recent)
    got, screened = table.propose(w, slack, tol), table._screen(w, slack, tol)
    assert got in (recent, screened)
    if got == recent:  # the recent set is proposed only where the screen passes it too
        assert screen_passes(table, w, slack, tol)[table._slots[tuple(sorted(recent))]]
        assert screened is not None
    empty = ActiveSetTable(cond._rows, cond._h_inv, cond._stack[2 * n :])
    assert empty.propose(w, slack, tol) is None
    w[seed % w.size] = bad
    with np.errstate(invalid="ignore"):
        assert table.propose(w, cond._stack[2 * n :] @ w, tol) is None


def old_screen(table, w, slack, tol):
    """:meth:`ActiveSetTable._screen` as it read with ``all`` reductions, kept as the oracle."""
    count, n = len(table._active), table._n
    lam = (table._laws[:count].reshape(count * n, -1) @ w).reshape(count, n)
    cand = np.flatnonzero((lam >= -tol).all(axis=1))
    if cand.size:
        on_rows = np.zeros((cand.size, table._gram.shape[0]))
        on_rows[np.arange(cand.size)[:, None], table._index[cand]] = lam[cand]
        ok = (slack - on_rows @ table._gram <= tol).all(axis=1)
        if ok.any():
            return table._active[cand[ok.argmax()]]
    return None


@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
@settings(max_examples=60, deadline=None)
@given(
    step=st.integers(0, 10**6),
    scale=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    bad_slack=st.booleans(),
)
def test_the_screen_decides_as_its_all_reductions_did(warm_tables, kind, step, scale, seed, bad, bad_slack):
    cond, asked = warm_tables[kind]
    table, n, tol = cond._table, cond.h.shape[0], np.sqrt(QP_TOL)
    rng = np.random.default_rng(seed)
    w = asked[step % len(asked)]
    w = w + scale * np.abs(w).max() * rng.standard_normal(w.size)
    with np.errstate(invalid="ignore"):
        slack = cond._stack[2 * n :] @ w
        if bad is not None:  # a non-finite entry of w, or of the slacks alone
            if bad_slack:
                slack[rng.integers(slack.size)] = bad
            else:
                w[rng.integers(w.size)] = bad
                slack = cond._stack[2 * n :] @ w
        assert table._screen(w, slack, tol) == old_screen(table, w, slack, tol)


@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
@settings(max_examples=30, deadline=None)
@given(
    step=st.integers(0, 10**6),
    scale=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
    g_scale=st.sampled_from([1.0, 1e6, 1e8]),
)
def test_a_stored_factor_checks_a_set_as_verify_active_set_does(warm_tables, kind, step, scale, seed, g_scale):
    cond, asked = warm_tables[kind]
    table, n = cond._table, cond.h.shape[0]
    w = asked[step % len(asked)]
    w = w + scale * np.abs(w).max() * np.random.default_rng(seed).standard_normal(w.size)
    qp = cond.factored_qp(cond._stack[:n] @ w, w[-cond.input_dim :])
    # Scaling g and the right-hand sides scales the plan and the rounding that
    # the multipliers magnify, up to near misses that the check refines.
    qp = qp._replace(g=g_scale * qp.g, rhs=g_scale * qp.rhs)
    for active in table._active:
        want, got = verify_active_set(qp, active, QP_TOL), table.verify(qp, active, QP_TOL)
        if want is None:
            assert got is None, active
        else:
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1], active


@pytest.mark.parametrize("kind", ["dmdc", "edmdc", "delay"])
def test_a_near_miss_is_refined_on_the_stored_factor(warm_tables, kind, monkeypatch):
    cond, asked = warm_tables[kind]
    table, n = cond._table, cond.h.shape[0]
    solves, dgetrs = [], scipy.linalg.lapack.dgetrs
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrs", lambda *args: solves.append(1) or dgetrs(*args))
    refined = accepted = 0
    for w in asked:
        qp = cond.factored_qp(cond._stack[:n] @ w, w[-cond.input_dim :])
        qp = qp._replace(g=1e8 * qp.g, rhs=1e8 * qp.rhs)
        active = table.propose(w, cond._stack[2 * n :] @ w, np.sqrt(QP_TOL))
        if active is None:
            continue
        solves.clear()
        got = table.verify(qp, active, QP_TOL)
        refined += len(solves) == 2  # the solve and its refinement step
        want = verify_active_set(qp, active, QP_TOL)
        assert (got is None) == (want is None)
        if got is not None:
            accepted += 1
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    assert refined > 0 and accepted > 0
