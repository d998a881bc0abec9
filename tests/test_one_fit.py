"""Every model kind is one regression over the lifted batch, with the bits of the reference fits."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from koopmpc import (
    InsufficientDataError,
    Trajectory,
    fit_delay_augmented,
    fit_dmdc,
    fit_edmdc,
    monomials_dictionary,
)
from fit_reference import reference_fit_delay, reference_fit_dmdc, reference_fit_edmdc

DT = 0.1


def fits(kind, n):
    """``(fit, reference)`` of one model kind on trajectories with ``n`` state coordinates."""
    if kind[0] == "dmdc":
        return partial(fit_dmdc, dt=DT), partial(reference_fit_dmdc, dt=DT)
    if kind[0] == "edmdc":
        dic = monomials_dictionary(n, kind[1])
        return partial(fit_edmdc, lifting=dic, dt=DT), partial(reference_fit_edmdc, dic=dic, dt=DT)
    _, depth, coords = kind
    delay = dict(depth=depth, dt=DT, coords=coords)
    return partial(fit_delay_augmented, **delay), partial(reference_fit_delay, **delay)


@st.composite
def fit_cases(draw):
    """A model kind and a list of trajectories: one-path or M-path batches of differing lengths."""
    n, q = draw(st.integers(1, 3), label="n"), draw(st.integers(1, 2), label="q")
    kind = draw(st.one_of(
        st.just(("dmdc",)),
        st.tuples(st.just("edmdc"), st.integers(1, 3)),
        st.tuples(
            st.just("delay"),
            st.integers(1, 4),
            st.one_of(st.none(), st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)),
        ),
    ), label="kind")
    shapes = draw(st.lists(
        st.tuples(st.sampled_from([None, 0, 1, 3, 8]), st.integers(1, 12)), min_size=1, max_size=4,
    ), label="(paths or None for one path, samples) per trajectory")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    trajs = []
    for paths, samples in shapes:
        lead = () if paths is None else (paths,)
        trajs.append(Trajectory(np.arange(samples) * DT, rng.uniform(-2.0, 2.0, (n,) + lead + (samples,)),
                                rng.uniform(-2.0, 2.0, (q,) + lead + (samples - 1,))))
    return kind, n, trajs[0] if len(trajs) == 1 and draw(st.booleans()) else trajs


def assert_same_model(got, want):
    for key in ("a", "b", "c"):
        g, w = getattr(got, key), getattr(want, key)
        assert g.shape == w.shape and g.strides == w.strides and g.tobytes() == w.tobytes(), key
    assert got.fit_residual == want.fit_residual
    assert got.training_hash == want.training_hash
    assert (got.kind, got.dt, got.lifting.coords) == (want.kind, want.dt, want.lifting.coords)


@given(case=fit_cases())
@settings(max_examples=200, deadline=None)
def test_the_lifted_fit_gives_the_reference_bits(case):
    kind, n, trajs = case
    fit, reference = fits(kind, n)
    try:
        want = reference(trajs)
    except InsufficientDataError:
        event("too few lifted columns")
        with pytest.raises(InsufficientDataError, match="lifted columns"):
            fit(trajs)
        return
    event(f"fitted {kind[0]}")
    assert_same_model(fit(trajs), want)


@pytest.mark.parametrize("kind", [("dmdc",), ("edmdc", 2), ("delay", 1, None), ("delay", 3, [0])])
def test_one_step_paths_give_the_reference_bits(kind):
    # A 1-D state's one batch of one-step paths lifts to a strided target.
    for n in (2, 1):
        rng = np.random.default_rng(3)
        trajs = Trajectory([0.0, DT], rng.standard_normal((n, 40, 2)), rng.standard_normal((1, 40, 1)))
        if kind[0] == "delay" and kind[1] > 1:
            longer = Trajectory(np.arange(12) * DT, rng.standard_normal((n, 3, 12)), rng.standard_normal((1, 3, 11)))
            trajs = [trajs, longer]
        fit, reference = fits(kind, n)
        assert_same_model(fit(trajs), reference(trajs))


@pytest.mark.parametrize("kind", [("dmdc",), ("edmdc", 2), ("delay", 2, None)])
def test_a_plant_without_inputs_fits_every_kind(kind):
    # A ControlSystem may have no inputs: its (0, M, T - 1) input batch adds no regressor rows.
    rng = np.random.default_rng(5)
    trajs = Trajectory(np.arange(10) * DT, rng.standard_normal((2, 10)), np.empty((0, 9)))
    fit, reference = fits(kind, 2)
    model, want = fit(trajs), reference(trajs)
    assert model.b.shape == want.b.shape == (model.lifted_dim, 0)
    # The bits of the reference, but for the strides of the empty B.
    assert_same_model(replace(model, b=want.b), want)


@pytest.mark.parametrize("fit", [
    lambda trajs: fit_dmdc(trajs, DT),
    lambda trajs: fit_edmdc(trajs, monomials_dictionary(2, 2), DT),
    lambda trajs: fit_delay_augmented(trajs, 3, DT),
], ids=["dmdc", "edmdc", "delay"])
def test_no_trajectories_raise_insufficient_data_for_every_kind(fit):
    with pytest.raises(InsufficientDataError, match="at least one trajectory"):
        fit([])
