import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from koopmpc import (
    BoxPartition,
    ControlSystem,
    ControlledChain,
    DensityVector,
    InvalidInputError,
    TransitionMatrix,
    estimate_controlled_transition,
    invariant_density,
)
from koopmpc.dynamics import make_vanderpol
from koopmpc.io import chain_from_json, chain_to_json, jsonify, read_json, write_json
from koopmpc.transfer import locate_many


def locate(part, x):
    """The box of one point, through a one-column ``locate_many``."""
    return int(locate_many(part, np.reshape(x, (-1, 1)))[0])

from test_numerics import gamblers_ruin, slow_leak_chain, sparse_stochastic


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

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"tau": float("nan")}, "tau must be positive and finite"),
            ({"tau": float("inf")}, "tau must be positive and finite"),
            ({"flow_dt": 0.0}, "flow_dt must be positive and finite"),
            ({"flow_dt": float("nan")}, "flow_dt must be positive and finite"),
            ({"flow_dt": -0.1}, "flow_dt must be positive and finite"),
            ({"samples_per_box": 2.5}, "samples_per_box must be an integer >= 1"),
            ({"seed": 1.5}, "seed must be an integer >= 0"),
        ],
        ids=["nan-tau", "inf-tau", "zero-flow-dt", "nan-flow-dt", "negative-flow-dt",
             "fractional-samples", "fractional-seed"],
    )
    def test_bad_argument_raises_naming_it(self, override, message):
        part = BoxPartition.regular([[0.0, 1.0], [0.0, 1.0]], [2, 2])
        args = dict(tau=0.5, samples_per_box=2, seed=0, flow_dt=0.1) | override
        with pytest.raises(InvalidInputError, match=message):
            estimate_controlled_transition(ControlSystem(2, 1, ZeroRhs()), part, [0.0], **args)


class TestPropagate:
    """One step of a density under level ``i`` is ``chain.mats[i].p @ p``."""

    def test_identity_chain_is_constant(self):
        part = BoxPartition.regular([[0.0, 1.0]], [3])
        chain = estimate_controlled_transition(
            ControlSystem(1, 1, ZeroRhs()), part, [0.0], tau=0.5, samples_per_box=50, seed=4
        )
        assert np.array_equal(chain.mats[0].p, np.eye(4))
        p = np.array([0.2, 0.3, 0.5, 0.0])
        for _ in range(4):
            p = chain.mats[0].p @ p
            assert np.array_equal(p, [0.2, 0.3, 0.5, 0.0])

    def test_hand_multiplication(self, unit_halves):
        class ShiftHalf:
            def __call__(self, x, u, t):
                return x + 0.5

        chain = estimate_controlled_transition(
            ControlSystem(1, 1, ShiftHalf(), kind="map"), unit_halves, [0.0], tau=1,
            samples_per_box=50, seed=5,
        )
        # Column j holds where box j's mass goes: box 0 -> box 1 -> outside, which absorbs.
        p = np.array([0.7, 0.3, 0.0])
        p = chain.mats[0].p @ p
        assert np.array_equal(p, [0.0, 0.7, 0.3])
        p = chain.mats[0].p @ p
        assert np.array_equal(p, [0.0, 0.0, 1.0])

    def test_densities_stay_normalized(self, doubling_chain):
        p = np.array([1.0, 0.0, 0.0])
        for _ in range(20):
            p = doubling_chain.mats[0].p @ p
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12


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

    def test_slow_leak_ends_outside(self):
        tm = TransitionMatrix(p=slow_leak_chain(), tau=1.0, outside=True)
        assert np.max(np.abs(invariant_density(tm).p - np.eye(11)[10])) <= 1e-12

    def test_gamblers_ruin_absorbs_at_the_exact_odds(self):
        tm = TransitionMatrix(p=gamblers_ruin(8), tau=1.0)
        pi = invariant_density(tm, start=np.eye(9)[3]).p
        assert abs(pi[8] - 3.0 / 8.0) <= 1e-14 and abs(pi[0] - 5.0 / 8.0) <= 1e-14

    def test_periodic_class_fed_by_a_transient_box_gets_the_cesaro_average(self):
        # Box 0 feeds the period-2 class {1, 2} w.p. 1/2 and the outside w.p. 1/4;
        # from a uniform start over the boxes the class ends with 1/3 + 1/3 + 2/9.
        p = np.array([
            [0.25, 0.0, 0.0, 0.0],
            [0.5, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.25, 0.0, 0.0, 1.0],
        ])
        pi = invariant_density(TransitionMatrix(p=p, tau=1.0, outside=True)).p
        assert np.max(np.abs(pi - [0.0, 4.0 / 9.0, 4.0 / 9.0, 1.0 / 9.0])) <= 1e-14
        x, cesaro = np.array([1.0, 1.0, 1.0, 0.0]) / 3.0, np.zeros(4)
        for _ in range(20_000):
            cesaro += x
            x = p @ x
        assert np.max(np.abs(pi - cesaro / 20_000)) <= 1e-4


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
        assert len(level["values"]) == np.count_nonzero(vdp_chain.mats[0].p) < vdp_chain.mats[0].dim**2 // 10

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

    @pytest.mark.parametrize(
        "path_to_key",
        [("partition",), ("partition", "lows"), ("matrices",), ("matrices", 0, "rows"),
         ("counts",), ("full_escape",), ("levels",)],
        ids=lambda keys: ".".join(map(str, keys)),
    )
    def test_a_missing_key_is_named(self, doubling_chain, tmp_path, path_to_key):
        path = tmp_path / "chain.json"
        chain_to_json(doubling_chain, path)
        raw = read_json(path)
        parent = raw
        for key in path_to_key[:-1]:
            parent = parent[key]
        del parent[path_to_key[-1]]
        write_json(raw, path)
        with pytest.raises(InvalidInputError, match=f"chain file .* has no key '{path_to_key[-1]}'"):
            chain_from_json(path)

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
        "edit, message",
        [
            (lambda raw: raw.update(partition=[1, 2]), "partition must be a JSON object"),
            (lambda raw: raw["partition"].update(counts=[2.5]), "partition counts .* must be integers"),
            (lambda raw: raw["partition"].update(lows=["x"]), "lows must be a numeric array"),
            (lambda raw: raw["matrices"].__setitem__(0, 5), "must be a JSON object or a nested list"),
            (lambda raw: raw["matrices"][0].update(shape=[3.0, 3]), "malformed sparse transition matrix"),
            (lambda raw: raw["matrices"][0].update(shape=["x", 3]), "malformed sparse transition matrix"),
            (lambda raw: raw["full_escape"].__setitem__(0, [0.5]), "full_escape"),
            (lambda raw: raw["full_escape"].__setitem__(0, [2]), r"full_escape .* in \[0, 2\)"),
            (lambda raw: raw["full_escape"].__setitem__(0, [-1]), "full_escape"),
            (lambda raw: raw["counts"].__setitem__(0, [1, 2]), "counts of shape"),
        ],
        ids=["partition-list", "float-box-counts", "string-lows", "number-matrix", "float-shape",
             "string-shape", "float-escape", "escape-past-end", "negative-escape", "short-counts"],
    )
    def test_mistyped_entries_raise(self, doubling_chain, tmp_path, edit, message):
        path = tmp_path / "chain.json"
        chain_to_json(doubling_chain, path)
        raw = read_json(path)
        edit(raw)
        write_json(raw, path)
        with pytest.raises(InvalidInputError, match=message):
            chain_from_json(path)


def reference_jsonify(obj):
    """The element-by-element conversion that ``jsonify`` must match byte for byte."""
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    elif isinstance(obj, np.ndarray):
        if obj.ndim > 0:
            return [reference_jsonify(v) for v in obj.tolist()]
        obj = obj.item()
    if isinstance(obj, dict):
        return {str(k): reference_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonify(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


@settings(max_examples=200, deadline=None)
@given(
    arr=st.sampled_from([float, np.float32, int, np.int32, np.uint8, bool]).flatmap(
        lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    )
)
def test_jsonify_writes_the_bytes_of_the_element_wise_reference(arr):
    for obj in (arr, {"a": arr, "b": [arr, arr.reshape(-1)[:1]]}):
        got = json.dumps(jsonify(obj), sort_keys=True, indent=2)
        assert got == json.dumps(reference_jsonify(obj), sort_keys=True, indent=2)


def test_jsonify_maps_non_finite_array_entries_to_null():
    arr = np.array([[1.0, np.nan], [np.inf, -np.inf]])
    assert jsonify({"x": arr, "n": np.arange(3), "b": np.array([True, False])}) == {
        "x": [[1.0, None], [None, None]], "n": [0, 1, 2], "b": [True, False],
    }


def test_jsonify_maps_non_finite_scalars_to_null():
    obj = {"a": np.float64("nan"), "b": np.array(np.inf), "c": np.float32(-np.inf),
           "d": [np.float64(1.5), np.array(2)], "e": float("nan")}
    assert json.dumps(jsonify(obj), sort_keys=True) == (
        '{"a": null, "b": null, "c": null, "d": [1.5, 2], "e": null}'
    )


@pytest.mark.parametrize("counts", [[2.7], [2.0], np.array([3.0]), [True], ["2"]])
def test_box_counts_that_are_not_integers_raise(counts):
    with pytest.raises(InvalidInputError, match="counts must be integers"):
        BoxPartition.regular([[0.0, 1.0]], counts)


def test_box_counts_of_any_integer_type_are_kept():
    part = BoxPartition.regular([[0.0, 1.0], [0.0, 2.0]], np.array([2, 3], dtype=np.uint8))
    assert part.counts.tolist() == [2, 3] and part.n_boxes == 6


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
