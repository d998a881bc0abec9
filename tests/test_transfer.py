import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmpc import (
    BoxPartition,
    ControlSystem,
    ControlledChain,
    DensityVector,
    InvalidInputError,
    TransitionMatrix,
    UnknownLevelError,
    estimate_controlled_transition,
    invariant_density,
    locate,
    propagate_density,
)
from koopmpc.dynamics import make_vanderpol
from koopmpc.io import chain_from_json, chain_to_json, read_json, write_json
from koopmpc.transfer import locate_many

from test_numerics import sparse_stochastic


class DoublingMap:
    def __call__(self, x, u, t):
        return (2.0 * x) % 1.0


class ZeroRhs:
    def __call__(self, x, u, t):
        return np.zeros_like(x)


@pytest.fixture(scope="module")
def unit_halves():
    return BoxPartition.regular([[0.0, 1.0]], [2])


@pytest.fixture(scope="module")
def doubling_chain(unit_halves):
    sys = ControlSystem(1, 1, DoublingMap(), kind="map")
    return estimate_controlled_transition(sys, unit_halves, [0.0], tau=1, samples_per_box=1000, seed=3)


class TestLocate:
    def test_half_open_convention(self, unit_halves):
        assert locate(unit_halves, [0.25]) == 0
        assert locate(unit_halves, [0.5]) == 1

    def test_top_boundary_closed(self, unit_halves):
        assert locate(unit_halves, [1.0]) == 1

    def test_outside(self, unit_halves):
        assert locate(unit_halves, [1.5]) == unit_halves.outside_index
        assert locate(unit_halves, [-0.1]) == unit_halves.outside_index

    def test_two_dimensional_row_major(self):
        part = BoxPartition.regular([[0.0, 1.0], [0.0, 1.0]], [2, 3])
        assert locate(part, [0.1, 0.1]) == 0
        assert locate(part, [0.1, 0.9]) == 2
        assert locate(part, [0.9, 0.1]) == 3
        assert part.n_boxes == 6

    def test_vectorized_matches_scalar(self, unit_halves):
        pts = np.array([[0.0, 0.49, 0.51, 1.0, 2.0, -1.0]])
        many = locate_many(unit_halves, pts)
        singles = [locate(unit_halves, pts[:, j]) for j in range(pts.shape[1])]
        assert np.array_equal(many, singles)


class TestEstimate:
    def test_identity_flow_gives_identity(self):
        part = BoxPartition.regular([[0.0, 1.0], [0.0, 1.0]], [3, 2])
        sys = ControlSystem(2, 1, ZeroRhs())
        chain = estimate_controlled_transition(sys, part, [0.0], tau=0.5, samples_per_box=20, seed=0)
        assert np.array_equal(chain.mats[0].p, np.eye(part.n_boxes + 1))

    def test_doubling_map_half_half(self, doubling_chain):
        p = doubling_chain.mats[0].p
        assert np.max(np.abs(p[:2, :2] - 0.5)) < 0.05
        assert np.all(p[2, :2] == 0.0)  # nothing escapes [0, 1)

    def test_single_invariant_box(self):
        part = BoxPartition.regular([[0.0, 1.0]], [1])
        sys = ControlSystem(1, 1, DoublingMap(), kind="map")
        chain = estimate_controlled_transition(sys, part, [0.0], tau=1, samples_per_box=100, seed=1)
        assert chain.mats[0].p[0, 0] == 1.0

    def test_columns_sum_to_one(self, doubling_chain):
        sums = doubling_chain.mats[0].p.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_full_escape_flagged(self):
        class ShiftAway:
            def __call__(self, x, u, t):
                return x + 10.0

        part = BoxPartition.regular([[0.0, 1.0]], [2])
        sys = ControlSystem(1, 1, ShiftAway(), kind="map")
        chain = estimate_controlled_transition(sys, part, [0.0], tau=1, samples_per_box=50, seed=2)
        mat = chain.mats[0]
        assert mat.full_escape == (0, 1)
        assert np.all(mat.p[part.outside_index, :2] == 1.0)

    def test_estimator_consistency_improves_with_samples(self, unit_halves):
        sys = ControlSystem(1, 1, DoublingMap(), kind="map")
        exact = np.full((2, 2), 0.5)
        mean_errs = []
        for spb in (100, 1000, 10000):
            errs = []
            for seed in range(5):
                chain = estimate_controlled_transition(
                    sys, unit_halves, [0.0], tau=1, samples_per_box=spb, seed=seed
                )
                errs.append(np.max(np.abs(chain.mats[0].p[:2, :2] - exact)))
            mean_errs.append(np.mean(errs))
        assert mean_errs[0] > mean_errs[1] > mean_errs[2]

    def test_seed_determinism(self, unit_halves):
        sys = ControlSystem(1, 1, DoublingMap(), kind="map")
        a = estimate_controlled_transition(sys, unit_halves, [0.0], 1, 200, seed=9)
        b = estimate_controlled_transition(sys, unit_halves, [0.0], 1, 200, seed=9)
        assert np.array_equal(a.mats[0].p, b.mats[0].p)


class TestPropagate:
    @staticmethod
    def _chain():
        tm = TransitionMatrix(p=np.array([[0.9, 0.2], [0.1, 0.8]]), tau=1.0)
        part = BoxPartition.regular([[0.0, 1.0]], [2])
        return ControlledChain(levels=(np.array([0.0]),), mats=(tm,), partition=part)

    def test_empty_sequence(self):
        chain = self._chain()
        out = propagate_density(chain, [1.0, 0.0], [])
        assert len(out) == 1
        assert np.allclose(out[0].p, [1.0, 0.0])

    def test_identity_chain_is_constant(self):
        tm = TransitionMatrix(p=np.eye(3), tau=1.0)
        part = BoxPartition.regular([[0.0, 1.0]], [3])
        chain = ControlledChain(levels=(np.array([0.0]),), mats=(tm,), partition=part)
        out = propagate_density(chain, [0.2, 0.3, 0.5], [np.array([0.0])] * 4)
        for d in out:
            assert np.allclose(d.p, [0.2, 0.3, 0.5])

    def test_hand_multiplication(self):
        chain = self._chain()
        out = propagate_density(chain, [1.0, 0.0], [np.array([0.0])])
        assert np.allclose(out[-1].p, [0.9, 0.1])

    def test_unknown_level(self):
        chain = self._chain()
        with pytest.raises(UnknownLevelError):
            propagate_density(chain, [1.0, 0.0], [np.array([7.0])])

    def test_densities_stay_normalized(self, doubling_chain):
        seq = [np.array([0.0])] * 20
        out = propagate_density(doubling_chain, [1.0, 0.0, 0.0], seq)
        for d in out:
            assert np.all(d.p >= 0)
            assert abs(d.p.sum() - 1.0) <= 1e-12


class TestInvariantDensity:
    def test_identity_is_start_dependent(self):
        tm = TransitionMatrix(p=np.eye(2), tau=1.0)
        out = invariant_density(tm, start=[0.7, 0.3])
        assert np.allclose(out.p, [0.7, 0.3])

    def test_two_state_balance(self):
        tm = TransitionMatrix(p=np.array([[0.9, 0.2], [0.1, 0.8]]), tau=1.0)
        assert np.max(np.abs(invariant_density(tm).p - [2.0 / 3.0, 1.0 / 3.0])) < 1e-9

    def test_doubling_map_is_uniform(self, doubling_chain):
        pi = invariant_density(doubling_chain.mats[0]).p
        assert np.max(np.abs(pi[:2] - 0.5)) < 0.05
        assert pi[2] == 0.0


@pytest.fixture(scope="module")
def vdp_chain():
    part = BoxPartition.regular([[-4.0, 4.0], [-4.0, 4.0]], [8, 8])
    return estimate_controlled_transition(
        make_vanderpol(0.2), part, [-5.0, 0.0, 5.0], tau=0.5, samples_per_box=40, seed=5, flow_dt=0.05
    )


def write_dense_chain(chain, path):
    """The chain writer from before levels were stored sparse: every matrix entry, nested."""
    write_json(
        {
            "partition": {
                "lows": chain.partition.lows,
                "highs": chain.partition.highs,
                "counts": chain.partition.counts,
            },
            "levels": [lv for lv in chain.levels],
            "tau": chain.mats[0].tau,
            "matrices": [m.p for m in chain.mats],
            "counts": [m.counts for m in chain.mats],
            "full_escape": [list(m.full_escape) for m in chain.mats],
        },
        path,
    )


def assert_same_chain(back, chain):
    assert len(back.mats) == len(chain.mats)
    for got, want in zip(back.mats, chain.mats):
        assert np.array_equal(got.p, want.p)
        assert (got.counts is None) == (want.counts is None)
        assert want.counts is None or np.array_equal(got.counts, want.counts)
        assert got.full_escape == want.full_escape
        assert got.tau == want.tau
    for got, want in zip(back.levels, chain.levels):
        assert np.array_equal(got, want)
    for key in ("lows", "highs", "counts"):
        assert np.array_equal(getattr(back.partition, key), getattr(chain.partition, key))


@st.composite
def sparse_chains(draw):
    k = draw(st.integers(1, 10))
    empty = draw(st.booleans())
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(sparse_stochastic(k, empty_columns=empty))
        counts = None if draw(st.booleans()) else np.array(
            draw(st.lists(st.integers(0, 500), min_size=k + 1, max_size=k + 1)), dtype=float
        )
        escape = tuple(j for j in range(k) if p[k, j] == 1.0)
        mats.append(TransitionMatrix(p=p, tau=0.5, counts=counts, outside=True, full_escape=escape))
    levels = tuple(np.array([float(i)]) for i in range(len(mats)))
    return ControlledChain(levels=levels, mats=tuple(mats), partition=BoxPartition.regular([[0.0, 1.0]], [k]))


class TestChainSerialization:
    def test_json_round_trip(self, doubling_chain, tmp_path):
        path = tmp_path / "chain.json"
        chain_to_json(doubling_chain, path)
        back = chain_from_json(path)
        assert np.allclose(back.mats[0].p, doubling_chain.mats[0].p)
        assert back.mats[0].tau == doubling_chain.mats[0].tau
        assert np.array_equal(back.partition.counts, doubling_chain.partition.counts)
        assert np.allclose(back.levels[0], doubling_chain.levels[0])

    def test_estimated_chain_round_trips_bitwise(self, vdp_chain, tmp_path):
        path = tmp_path / "chain.json"
        chain_to_json(vdp_chain, path)
        assert_same_chain(chain_from_json(path), vdp_chain)
        # Only the nonzeros are written.
        level = read_json(path)["matrices"][0]
        assert len(level["values"]) == np.count_nonzero(vdp_chain.mats[0].p) < vdp_chain.dim**2 // 10

    @settings(deadline=None, max_examples=50)
    @given(chain=sparse_chains())
    def test_sparse_chain_round_trips_bitwise(self, chain, tmp_path_factory):
        path = tmp_path_factory.mktemp("chain") / "chain.json"
        chain_to_json(chain, path)
        assert_same_chain(chain_from_json(path), chain)

    def test_dense_file_still_loads(self, vdp_chain, tmp_path):
        path = tmp_path / "chain.json"
        write_dense_chain(vdp_chain, path)
        assert isinstance(read_json(path)["matrices"][0], list)
        assert_same_chain(chain_from_json(path), vdp_chain)

    def test_null_value_in_a_level_raises(self, doubling_chain, tmp_path):
        path = tmp_path / "chain.json"
        chain_to_json(doubling_chain, path)
        raw = read_json(path)
        raw["matrices"][0]["values"][0] = None
        write_json(raw, path)
        with pytest.raises(InvalidInputError, match="transition entries must be finite"):
            chain_from_json(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tau", None, "tau must be a number, got None"),
            ("tau", float("nan"), "tau must be positive and finite"),
            ("tau", float("inf"), "tau must be positive and finite"),
            ("levels", [[None]], "input levels must be finite"),
        ],
        ids=["null-tau", "nan-tau", "inf-tau", "null-level"],
    )
    def test_non_finite_tau_or_level_raises(self, doubling_chain, tmp_path, key, value, message):
        path = tmp_path / "chain.json"
        chain_to_json(doubling_chain, path)
        raw = read_json(path)
        raw[key] = value
        path.write_text(json.dumps(raw))  # NaN and Infinity as JSON literals
        with pytest.raises(InvalidInputError, match=message):
            chain_from_json(path)

    @pytest.mark.parametrize(
        "entry",
        [
            {"shape": [2, 2], "rows": [0, 2], "cols": [0, 1], "values": [1.0, 1.0]},
            {"shape": [2, 2], "rows": [0, -1], "cols": [0, 1], "values": [1.0, 1.0]},
            {"shape": [2, 2], "rows": [0, 1], "cols": [0, 1], "values": [1.0]},
            {"shape": [2], "rows": [0], "cols": [0], "values": [1.0]},
        ],
        ids=["row-past-end", "negative-row", "short-values", "one-axis"],
    )
    def test_malformed_sparse_level_raises(self, doubling_chain, tmp_path, entry):
        path = tmp_path / "chain.json"
        chain_to_json(doubling_chain, path)
        raw = read_json(path)
        raw["matrices"][0] = entry
        write_json(raw, path)
        with pytest.raises(InvalidInputError, match="malformed sparse transition matrix"):
            chain_from_json(path)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TransitionMatrix(p=np.array([[1.0, np.nan], [0.0, np.nan]]), tau=1.0),
        lambda: DensityVector(np.array([np.nan, 1.0])),
        lambda: BoxPartition(lows=[0.0, -np.inf], highs=[1.0, 1.0], counts=[2, 2]),
        lambda: BoxPartition(lows=[0.0], highs=[np.nan], counts=[2]),
    ],
    ids=["transition", "density", "infinite-low", "nan-high"],
)
def test_non_finite_entries_raise(build):
    with pytest.raises(InvalidInputError, match="finite"):
        build()


class TestDensityVector:
    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            DensityVector(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            DensityVector(np.array([0.2, 0.2]))
