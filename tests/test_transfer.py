import hashlib
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
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
import koopmpc.transfer as ktransfer
from koopmpc.dynamics import make_vanderpol
from koopmpc.config import ExperimentConfig
from koopmpc.io import chain_to_json, jsonify, read_json, transition_to_csv, write_json
from koopmpc.numerics import lstsq_min_norm
from koopmpc.transfer import locate_many


def one_hot_boxes(part, xs):
    """(boxes + 1, m) indicators of the box of each column of ``xs``, tested box by box against its corners.

    A box holds [low, high) along each axis, closed above at the rectangle's
    top; a column in no box, or not finite, is in the last row.
    """
    out = np.zeros((part.n_boxes + 1, xs.shape[1]))
    width = (part.highs - part.lows) / part.counts
    for j, idx in enumerate(np.ndindex(*part.counts)):
        lo = part.lows + np.asarray(idx) * width
        top = np.asarray(idx) == part.counts - 1
        above = (xs >= lo[:, None]) & ((xs < (lo + width)[:, None]) | (top[:, None] & (xs <= part.highs[:, None])))
        out[j] = np.all(above, axis=0)
    out[-1] = out[:-1].sum(axis=0) == 0
    return out


def locate(part, x):
    """The box of one point, through a one-column ``locate_many``."""
    return int(locate_many(part, np.reshape(x, (-1, 1)))[0])

from conftest import read_chain
from test_numerics import gamblers_ruin, slow_leak_chain, sparse_stochastic
from ulam_reference import reference_estimate, reference_json_text, reference_sample


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
        assert np.array_equal(chain.mats[0].p.toarray(), np.eye(part.n_boxes + 1))

    def test_doubling_map_half_half(self, doubling_chain):
        p = doubling_chain.mats[0].p.toarray()
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
        assert np.all(mat.p.toarray()[part.outside_index, :2] == 1.0)

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
        assert np.array_equal(a.mats[0].p.toarray(), b.mats[0].p.toarray())

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
            ({"part": BoxPartition.regular([[0.0, 1.0]], [2])},
             "partition dimension 1 does not match the plant state dimension 2"),
            ({"part": BoxPartition.regular([[0.0, 1.0]] * 3, [2, 2, 2])},
             "partition dimension 3 does not match the plant state dimension 2"),
            ({"levels": [0.0, float("nan")]}, r"input level \[nan\] must be finite"),
        ],
        ids=["nan-tau", "inf-tau", "zero-flow-dt", "nan-flow-dt", "negative-flow-dt",
             "fractional-samples", "fractional-seed", "one-dimensional-partition",
             "three-dimensional-partition", "nan-level"],
    )
    def test_bad_argument_raises_naming_it(self, override, message, monkeypatch):
        def never(*args):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(ktransfer, "_sample_boxes", never)
        part = BoxPartition.regular([[0.0, 1.0], [0.0, 1.0]], [2, 2])
        args = dict(part=part, levels=[0.0], tau=0.5, samples_per_box=2, seed=0, flow_dt=0.1) | override
        with pytest.raises(InvalidInputError, match=message):
            estimate_controlled_transition(make_vanderpol(1.0), **args)

    def test_box_indicator_regression_gives_the_counted_matrix(self):
        # Ulam's method is EDMD over box indicators: regressing the one-hot
        # boxes of the landed samples on those of their sources gives p^T on
        # the box columns, with no count taken.
        part = BoxPartition.regular([[-3.0, 3.0], [-2.0, 2.0]], [5, 4])
        plant, levels, tau, spb, seed = make_vanderpol(1.0), [-5.0, 5.0], 0.5, 40, 7
        chain = estimate_controlled_transition(plant, part, levels, tau, spb, seed, flow_dt=0.05)
        pts = ktransfer._sample_boxes(part, spb, seed)
        src = one_hot_boxes(part, pts)
        for lv, mat in zip(levels, chain.mats):
            dst = one_hot_boxes(part, ktransfer._flow_batch(plant, pts, np.array([lv]), tau, 0.05))
            assert 0 < dst[-1].sum() < pts.shape[1]  # some samples leave, not all
            w = lstsq_min_norm(src.T, dst.T)
            d = part.n_boxes
            assert np.max(np.abs(w.T[:, :d] - mat.p[:, :d])) <= 1e-14


class TestPropagate:
    """One step of a density under level ``i`` is ``chain.mats[i].p @ p``."""

    def test_identity_chain_is_constant(self):
        part = BoxPartition.regular([[0.0, 1.0]], [3])
        chain = estimate_controlled_transition(
            ControlSystem(1, 1, ZeroRhs()), part, [0.0], tau=0.5, samples_per_box=50, seed=4
        )
        assert np.array_equal(chain.mats[0].p.toarray(), np.eye(4))
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


def assert_same_chain(back, chain):
    assert len(back.mats) == len(chain.mats)
    for got, want in zip(back.mats, chain.mats):
        assert np.array_equal(got.p.toarray(), want.p.toarray())
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
        back = read_chain(path)
        assert np.allclose(back.mats[0].p.toarray(), doubling_chain.mats[0].p.toarray())
        assert back.mats[0].tau == doubling_chain.mats[0].tau
        assert np.array_equal(back.partition.counts, doubling_chain.partition.counts)
        assert np.allclose(back.levels[0], doubling_chain.levels[0])

    def test_estimated_chain_round_trips_bitwise(self, vdp_chain, tmp_path):
        path = tmp_path / "chain.json"
        chain_to_json(vdp_chain, path)
        assert_same_chain(read_chain(path), vdp_chain)
        # Only the nonzeros are written.
        level = read_json(path)["matrices"][0]
        assert len(level["values"]) == np.count_nonzero(vdp_chain.mats[0].p.toarray()) < vdp_chain.mats[0].dim**2 // 10

    @settings(deadline=None, max_examples=50)
    @given(chain=sparse_chains())
    def test_sparse_chain_round_trips_bitwise(self, chain, tmp_path_factory):
        path = tmp_path_factory.mktemp("chain") / "chain.json"
        chain_to_json(chain, path)
        assert_same_chain(read_chain(path), chain)


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


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"counts": np.array([1.0, 2.0]), "full_escape": (0.5, 7)}, "counts"),
        ({"counts": np.ones((3, 1))}, "counts"),
        ({"full_escape": (0.5,)}, "full_escape"),
        ({"full_escape": (7,)}, "full_escape"),
        ({"full_escape": (-1,)}, "full_escape"),
        ({"full_escape": (2,), "outside": True}, "full_escape"),
    ],
    ids=["short-counts", "2-d-counts", "fractional-escape", "escape-past-the-boxes",
         "negative-escape", "escape-is-the-outside-state"],
)
def test_transition_matrix_rejects_a_malformed_field_naming_it(fields, name):
    with pytest.raises(InvalidInputError, match=name):
        TransitionMatrix(p=np.eye(3), tau=1.0, **fields)


def test_a_sparse_p_is_stored_canonical_without_writing_the_callers_arrays():
    # Duplicates, unsorted columns and a stored zero, as scipy allows them.
    data, indices, indptr = np.array([0.25, 0.0, 1.0, 0.25, 0.5]), np.array([1, 0, 0, 1, 1]), np.array([0, 4, 5])
    given = scipy.sparse.csr_array((data.copy(), indices.copy(), indptr.copy()), shape=(2, 2))
    tm = TransitionMatrix(p=given, tau=1.0)
    assert isinstance(tm.p, scipy.sparse.csr_array) and tm.p.has_canonical_format
    assert tm.p.indptr.tolist() == [0, 2, 3] and tm.p.indices.tolist() == [0, 1, 1]
    assert np.array_equal(tm.p.toarray(), [[1.0, 0.5], [0.0, 0.5]])
    assert np.array_equal(given.data, data) and np.array_equal(given.indices, indices)
    with pytest.raises(InvalidInputError, match="finite"):
        TransitionMatrix(p=scipy.sparse.csr_array(np.array([[1.0, np.nan], [0.0, 0.0]])), tau=1.0)


class TestDensityVector:
    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            DensityVector(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            DensityVector(np.array([0.2, 0.2]))


@st.composite
def partitions(draw, max_side=4):
    """A partition of dimension 1-3 with 1-``max_side`` boxes per axis over a random rectangle."""
    dim = draw(st.integers(1, 3))
    lows = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    spans = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)))
    counts = draw(st.lists(st.integers(1, max_side), min_size=dim, max_size=dim))
    return BoxPartition(lows=lows, highs=lows + spans, counts=counts)


@settings(max_examples=100, deadline=None)
@given(part=partitions(max_side=6), spb=st.integers(1, 30), seed=st.integers(0, 2**128))
def test_batched_sampling_draws_the_points_of_one_generator_per_box(part, spb, seed):
    assert np.array_equal(ktransfer._sample_boxes(part, spb, seed), reference_sample(part, spb, seed))


class ScrambleMap:
    """x -> scale * x + shift, optionally snapped to a grid of quarters; entries past ``cut`` become ``bad``."""

    def __init__(self, scale, shift, snap, cut, bad):
        self.scale, self.shift, self.snap, self.cut, self.bad = scale, shift, snap, cut, bad

    def __call__(self, x, u, t):
        y = self.scale * x + self.shift + u[0]
        if self.snap:
            y = np.round(4.0 * y) / 4.0
        return np.where(np.abs(x) > self.cut, self.bad, y)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    spb=st.integers(1, 20),
    seed=st.integers(0, 2**32),
    scale=st.floats(-2.0, 2.0),
    shift=st.floats(-1.0, 1.0),
    snap=st.booleans(),
    cut=st.floats(0.0, 10.0),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, 1e300]),
    levels=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
)
def test_counted_matrices_are_those_of_the_box_by_box_count(data, spb, seed, scale, shift, snap, cut, bad, levels):
    # Integer corners, so snapped samples land on box boundaries too.
    dim = data.draw(st.integers(1, 3))
    lows = np.array(data.draw(st.lists(st.integers(-3, 0), min_size=dim, max_size=dim)), dtype=float)
    spans = np.array(data.draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)), dtype=float)
    part = BoxPartition(lows=lows, highs=lows + spans,
                        counts=data.draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)))
    sys = ControlSystem(dim, 1, ScrambleMap(scale, shift, snap, cut, bad), kind="map")
    chain = estimate_controlled_transition(sys, part, levels, 1, spb, seed)
    want = reference_estimate(sys, part, levels, 1, spb, seed, flow_dt=0.1)
    for mat, (p, col_counts, escape) in zip(chain.mats, want, strict=True):
        assert mat.p.toarray().tobytes() == p.tobytes()
        assert mat.counts.tobytes() == col_counts.tobytes()
        assert mat.full_escape == escape


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=40,
)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "out.json"


@settings(max_examples=150, deadline=None)
@given(obj=json_values | st.dictionaries(st.text(max_size=4), json_values, max_size=5))
def test_write_json_writes_the_bytes_of_json_dump(obj, json_path):
    write_json(obj, json_path)
    assert json_path.read_bytes() == reference_json_text(obj).encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(
    arr=st.sampled_from([float, int, bool]).flatmap(
        lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    )
)
def test_write_json_writes_arrays_in_the_bytes_of_json_dump(arr, json_path):
    obj = {"a": arr, "b": [arr, {"c": arr}], "d": []}
    write_json(obj, json_path)
    assert json_path.read_bytes() == reference_json_text(obj).encode("utf-8")


# sha256 digests recorded before sampling was batched and counting used
# bincount: the default chain (``ExperimentConfig()``, 16x16 boxes, three
# levels), the bytes of its three p matrices and of its three invariant
# densities in turn, and the bytes of its chain.json.
RECORDED_CHAIN_DIGESTS = {
    "p": "62cdce610483e783cc8340defddedc81cb3a77927aa79a545666c54f7af62baa",
    "densities": "ec428b4c2a169360de440ec219b4280fab70353157e1e42596279fa92111b0c9",
    "chain.json": "bde8b9df331dc6b41fafadddb48c81c37e413d3acea2ded7e709b7c51a99a137",
}


def test_the_default_chain_keeps_its_recorded_bits(tmp_path):
    cfg = ExperimentConfig()
    chain = estimate_controlled_transition(
        make_vanderpol(cfg.mu), BoxPartition.regular(cfg.ulam_box, cfg.ulam_counts),
        [np.atleast_1d(lv) for lv in cfg.ulam_levels], cfg.ulam_tau, cfg.ulam_samples_per_box, cfg.seed,
        flow_dt=cfg.ulam_flow_dt,
    )
    p, densities = hashlib.sha256(), hashlib.sha256()
    for mat in chain.mats:
        p.update(mat.p.toarray().tobytes())
        densities.update(invariant_density(mat).p.tobytes())
    chain_to_json(chain, tmp_path / "chain.json")
    got = {"p": p.hexdigest(), "densities": densities.hexdigest(),
           "chain.json": hashlib.sha256((tmp_path / "chain.json").read_bytes()).hexdigest()}
    assert got == RECORDED_CHAIN_DIGESTS


@pytest.mark.parametrize("boxes", [16, 24])
def test_each_level_is_the_csr_of_the_box_by_box_dense_count(boxes):
    # The study's chain and perfbench's offline one: the stored matrix is the
    # dense reference's, and so is the CSR structure the density solve gets.
    cfg = ExperimentConfig()
    part = BoxPartition.regular(cfg.ulam_box, [boxes, boxes])
    args = (make_vanderpol(cfg.mu), part, [np.atleast_1d(lv) for lv in cfg.ulam_levels], cfg.ulam_tau,
            cfg.ulam_samples_per_box, cfg.seed)
    chain = estimate_controlled_transition(*args, flow_dt=cfg.ulam_flow_dt)
    want = reference_estimate(*args, flow_dt=cfg.ulam_flow_dt)
    for mat, (p, col_counts, escape) in zip(chain.mats, want, strict=True):
        assert isinstance(mat.p, scipy.sparse.csr_array) and mat.p.has_canonical_format
        assert mat.p.toarray().tobytes() == p.tobytes()
        dense = scipy.sparse.csr_array(p)
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mat.p, key), getattr(dense, key))
        assert mat.counts.tobytes() == col_counts.tobytes()
        assert mat.full_escape == escape


def test_a_64x64_chain_is_estimated_solved_and_written_without_a_dense_level(tmp_path):
    # 4,097 states: one dense float level would take 134 MB.
    cfg = ExperimentConfig()
    part = BoxPartition.regular(cfg.ulam_box, [64, 64])
    tracemalloc.start()
    try:
        chain = estimate_controlled_transition(
            make_vanderpol(cfg.mu), part, [np.atleast_1d(lv) for lv in cfg.ulam_levels], cfg.ulam_tau, 4,
            cfg.seed, flow_dt=cfg.ulam_flow_dt,
        )
        densities = [invariant_density(mat) for mat in chain.mats]
        chain_to_json(chain, tmp_path / "chain.json")
        for i, mat in enumerate(chain.mats):
            transition_to_csv(mat.p, tmp_path / f"chain_level_{i}.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert chain.mats[0].dim == 4097 and all(abs(d.p.sum() - 1.0) <= 1e-12 for d in densities)
