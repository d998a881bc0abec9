"""Trajectory batches: one (n, M, T) array from generation through fits and scoring."""

import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmpc import (
    DivergenceError,
    ForcingSignal,
    InvalidInputError,
    Trajectory,
    fit_delay_augmented,
    fit_dmdc,
    fit_edmdc,
    generate_training_trajectories,
    make_vanderpol,
    monomials_dictionary,
    product_sines_family,
    simulate,
)
from koopmpc.benchmark import (
    fit_models,
    make_training_data,
    make_validation_trajectories,
    prediction_errors,
)
from koopmpc.cli import main
from koopmpc.config import ExperimentConfig, config_from_mapping
from koopmpc.io import read_json, trajectories_from_csv, trajectories_to_csv, write_json
from conftest import paths
from fit_reference import snapshot_columns

BOX = np.array([[-3.0, 3.0], [-3.0, 3.0]])
DT = 0.05


def same_arrays(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def forced_family(blow):
    """Product-of-sines forcing whose ``i``-th signal (counting calls) diverges if ``i`` is in ``blow``.

    Every call draws its usual signal first, so the generator's stream is
    the same whether or not the path is forced off.
    """
    calls = itertools.count()
    draw = product_sines_family(5.0, 10.0)

    def make(rng):
        signal = draw(rng)
        return ForcingSignal.product_sines(1e12, 1.0, 1.0) if next(calls) in blow else signal

    return make


def reference_paths(plant, n_traj, t_end, family, seed):
    """Per path, its own ``simulate`` call from the generator's ``(seed, i)`` stream, or None if it diverges."""
    out = []
    for i in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        x0 = BOX[:, 0] + rng.random(2) * (BOX[:, 1] - BOX[:, 0])
        forcing = family(rng)
        try:
            out.append(simulate(plant, x0, forcing, t_end, DT))
        except DivergenceError:
            out.append(None)
    return out


def truncated(traj, first, stop, n_steps):
    """Paths ``first:stop`` of a batch, cut to their first ``n_steps`` steps (views)."""
    return Trajectory(
        traj.times[: n_steps + 1],
        traj.states[:, first:stop, : n_steps + 1],
        traj.inputs[:, first:stop, :n_steps],
    )


def fitted(trajectories):
    """The three model kinds fitted on ``trajectories``."""
    return {
        "dmdc": fit_dmdc(trajectories, DT),
        "edmdc": fit_edmdc(trajectories, monomials_dictionary(2, 2), DT),
        "delay": fit_delay_augmented(trajectories, 2, DT),
    }


def assert_same_fits(trajectories, reference):
    """``trajectories`` and ``reference`` hold the same snapshot columns and fit the same bits."""
    samples, ref_samples = snapshot_columns(trajectories, DT), snapshot_columns(reference, DT)
    models, ref_models = fitted(trajectories), fitted(reference)
    for key in ("x", "xp", "u"):
        assert same_arrays(getattr(samples, key), getattr(ref_samples, key))
    for name, model in models.items():
        ref = ref_models[name]
        for key in ("a", "b", "c"):
            assert same_arrays(getattr(model, key), getattr(ref, key)), (name, key)
        assert model.fit_residual == ref.fit_residual and model.training_hash == ref.training_hash
        assert model.dt == ref.dt


def assert_same_scores(got, want):
    for name in want:
        for key in ("one_step_rms", "rollout_rms", "start_index"):
            assert got[name][key] == want[name][key], (name, key)
        assert len(got[name]["predictions"]) == len(want[name]["predictions"])
        for a, b in zip(got[name]["predictions"], want[name]["predictions"]):
            assert same_arrays(a, b)


class TestBatchAgainstPerPathReference:
    @settings(max_examples=25, deadline=None)
    @given(n_traj=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_batch_and_its_paths_give_the_same_bits(self, n_traj, seed, data):
        blow = data.draw(st.sets(st.integers(0, n_traj - 1)), label="forced divergent paths")
        plant = make_vanderpol(0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch, n_divergent = generate_training_trajectories(
                plant, n_traj, BOX, 1.0, DT, forced_family(blow), seed
            )
            reference = reference_paths(plant, n_traj, 1.0, forced_family(blow), seed)
        assert n_divergent == len(blow) == sum(ref is None for ref in reference)
        kept = [ref for ref in reference if ref is not None]
        assert batch.n_paths == len(kept) and batch.states.shape == (2, len(kept), 21)
        for got, want in zip(paths(batch), kept):
            for key in ("times", "states", "inputs"):
                assert same_arrays(getattr(got, key), getattr(want, key))
        if not kept:
            return

        singles = paths(batch)
        assert_same_fits(batch, singles)
        models = fitted(batch)
        assert_same_scores(prediction_errors(models, batch, 5), prediction_errors(models, singles, 5))

        # Ragged: the first paths cut short, the others whole; either part may be empty.
        split = data.draw(st.integers(0, batch.n_paths), label="split")
        n_short = data.draw(st.integers(8, 20), label="short steps")
        ragged = [truncated(batch, 0, split, n_short), truncated(batch, split, batch.n_paths, 20)]
        ragged_singles = paths(ragged[0]) + paths(ragged[1])
        assert_same_fits(ragged, ragged_singles)
        assert_same_scores(prediction_errors(models, ragged, 5), prediction_errors(models, ragged_singles, 5))


def _path(n=2, q=1, steps=6, dt=0.1, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(np.arange(steps + 1) * dt, rng.standard_normal((n, steps + 1)),
                      rng.standard_normal((q, steps)))


class TestMismatchedTrajectories:
    FITS = {
        # The dmdc fit, which regresses the snapshot pairs of the paths.
        "snapshots": lambda trajs: fit_dmdc(trajs, 0.1),
        "delay": lambda trajs: fit_delay_augmented(trajs, 2, 0.1),
        "scoring": lambda trajs: prediction_errors({"dmdc": fit_dmdc([_path(steps=20)], 0.1)}, trajs, 3),
    }

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_state_dimensions_that_differ_raise(self, fit):
        with pytest.raises(InvalidInputError, match=r"dimensions \(3, 1\), not \(2, 1\)"):
            self.FITS[fit]([_path(steps=20), _path(n=3, steps=20)])

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_input_dimensions_that_differ_raise(self, fit):
        with pytest.raises(InvalidInputError, match=r"dimensions \(2, 2\), not \(2, 1\)"):
            self.FITS[fit]([_path(steps=20), _path(q=2, steps=20)])

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_sample_spacings_that_differ_raise(self, fit):
        with pytest.raises(InvalidInputError, match=r"not 0\.1 apart"):
            self.FITS[fit]([_path(steps=20), _path(steps=20, dt=0.2)])

    def test_snapshots_of_a_path_not_dt_apart_raise(self):
        traj = Trajectory(np.arange(4.0), np.zeros((2, 4)), np.zeros((1, 3)))
        with pytest.raises(InvalidInputError, match=r"not 0\.1 apart"):
            fit_dmdc(traj, 0.1)
        assert fit_dmdc(traj, 1.0).dt == 1.0

    def test_unevenly_spaced_samples_raise(self):
        traj = Trajectory([0.0, 0.1, 0.3, 0.4], np.zeros((2, 4)), np.zeros((1, 3)))
        with pytest.raises(InvalidInputError, match="apart"):
            fit_delay_augmented(traj, 1, 0.1)

    def test_the_delay_model_takes_dt_from_the_paths(self):
        both = [_path(steps=20, dt=0.25), _path(steps=20, dt=0.25)]
        assert fit_delay_augmented(both, 2, 0.25).dt == 0.25
        with pytest.raises(InvalidInputError, match=r"not 0\.1 apart"):
            fit_delay_augmented(both, 2, 0.1)


class TestBatchLayout:
    def test_a_batch_with_as_many_paths_as_samples_keeps_every_path(self):
        states = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
        inputs = np.ones((1, 3, 2))
        traj = Trajectory(np.arange(3) * 0.1, states, inputs)
        assert traj.n_paths == 3 and traj.n_steps == 2 and traj.inputs.shape == (1, 3, 2)

    def test_generation_keeps_every_path_when_paths_outnumber_steps_by_one(self):
        traj, _ = generate_training_trajectories(
            make_vanderpol(0.2), 3, BOX, 2 * DT, DT, product_sines_family(), 1
        )
        assert traj.n_paths == 3 and traj.states.shape == (2, 3, 3) and traj.inputs.shape == (1, 3, 2)

    def test_batch_inputs_as_long_as_times_lose_their_last_sample(self):
        inputs = np.arange(8.0).reshape(1, 2, 4)
        traj = Trajectory(np.arange(4) * 0.1, np.zeros((2, 2, 4)), inputs)
        assert same_arrays(traj.inputs, inputs[..., :3].copy())

    @pytest.mark.parametrize("inputs, match", [
        (np.zeros((1, 3, 3)), "inputs must be"),
        (np.zeros((1, 3)), "inputs must be"),
        (np.zeros((1, 2, 2)), "one column per step"),
    ])
    def test_batch_inputs_of_another_shape_raise(self, inputs, match):
        with pytest.raises(InvalidInputError, match=match):
            Trajectory(np.arange(4) * 0.1, np.zeros((2, 2, 4)), inputs)

    def test_a_non_finite_batch_raises(self):
        states = np.zeros((2, 2, 4))
        states[1, 1, 2] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            Trajectory(np.arange(4) * 0.1, states, np.zeros((1, 2, 3)))

    def test_as_batch_gives_one_path_a_path_axis_without_copying(self):
        traj = _path()
        states, inputs = traj.as_batch()
        assert states.shape == (2, 1, 7) and inputs.shape == (1, 1, 6)
        assert np.shares_memory(states, traj.states) and np.shares_memory(inputs, traj.inputs)


class TestZeroPaths:
    def test_every_path_diverging_leaves_an_empty_batch(self):
        with pytest.warns(UserWarning, match="dropped 3 divergent"):
            batch, n_divergent = generate_training_trajectories(
                make_vanderpol(0.2), 3, BOX, 1.0, DT, forced_family({0, 1, 2}), 5
            )
        assert n_divergent == 3 and batch.n_paths == 0
        assert batch.states.shape == (2, 0, 21) and batch.inputs.shape == (1, 0, 20)

    def test_make_training_data_raises_when_every_path_diverges(self):
        cfg = config_from_mapping({"n_trajectories": 4, "forcing_amplitude": 1e12})
        with pytest.warns(UserWarning, match="dropped 4 divergent"):
            with pytest.raises(DivergenceError, match="all training trajectories diverged"):
                make_training_data(cfg)


# sha256 digests of the default study (``ExperimentConfig()``) as recorded
# before training and validation data became batches: per model the bytes
# of a, b and c in turn, and the float64 bytes of the rollout RMS list; and
# the bytes of ``koopmpc generate``'s trajectories.csv.
RECORDED_MODEL_DIGESTS = {
    "dmdc": "03a1f66f3ed4612608105e52c96b1ad78f3358db04301e434f9929a7e1b84833",
    "edmdc": "faff2bb5b6efa421fbf2357d0ebe48946796e9d9a1b6d0e8cf850aae1ab7844d",
    "delay": "3cb58d73de8b0c88b8231c13be71902cc623f91d044f16a138ee5163ff70b576",
}
RECORDED_ROLLOUT_DIGESTS = {
    "dmdc": "68f2e0b9c85e6cd99d767dda76a2456af1fe759fb676076b39d074f60ae24097",
    "edmdc": "352e8e87a64e0120a980c0ae2999847ec9113769678b583cb5312cc861722e2f",
    "delay": "2b00c9e41d8c385669068d1bab047e70189a55a78b12e0fd4025cd73b1f063ee",
}
RECORDED_CSV_DIGEST = "b4e5349833712d662969fe4f6db8a206512ac6308ae0cb3e2fcf23d0f0cadc8b"


@pytest.fixture(scope="module")
def default_study():
    cfg = ExperimentConfig()
    plant, trajectories, dt = make_training_data(cfg)
    models = fit_models(cfg, trajectories, dt)
    errors = prediction_errors(models, make_validation_trajectories(cfg, plant), cfg.prediction_horizon)
    return trajectories, models, errors


class TestRecordedBits:
    def test_default_models_and_rollout_errors_keep_their_recorded_bits(self, default_study):
        _, models, errors = default_study
        for name, model in models.items():
            digest = hashlib.sha256()
            for key in ("a", "b", "c"):
                digest.update(np.ascontiguousarray(getattr(model, key)).tobytes())
            assert digest.hexdigest() == RECORDED_MODEL_DIGESTS[name], name
            rollout = np.asarray(errors[name]["rollout_rms"]).tobytes()
            assert hashlib.sha256(rollout).hexdigest() == RECORDED_ROLLOUT_DIGESTS[name], name

    def test_generate_writes_the_recorded_csv_and_reads_back_one_batch(self, default_study, tmp_path):
        assert main(["generate", "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / "trajectories.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == RECORDED_CSV_DIGEST
        (back,) = trajectories_from_csv(tmp_path / "trajectories.csv", 2, 1)
        batch = default_study[0]
        for key in ("times", "states", "inputs"):
            assert np.array_equal(getattr(back, key), getattr(batch, key)), key

    def test_a_ragged_file_loads_as_two_batches_and_fits(self, default_study, tmp_path):
        batch = default_study[0]
        ragged = [truncated(batch, 0, 3, 12), truncated(batch, 3, 7, 20)]
        data = tmp_path / "data"
        trajectories_to_csv(ragged, data / "trajectories.csv")
        write_json({"state_dim": 2, "input_dim": 1, "dt": DT}, data / "manifest.json")
        loaded = trajectories_from_csv(data / "trajectories.csv", 2, 1)
        assert [traj.n_paths for traj in loaded] == [3, 4]
        assert [traj.n_steps for traj in loaded] == [12, 20]
        for name in ("dmdc", "edmdc", "delay"):
            assert main(["fit", str(data), "--model", name, "--out", str(tmp_path / "fit")]) == 0
        saved = read_json(tmp_path / "fit" / "model_delay.json")
        assert np.array_equal(np.asarray(saved["a"]), fit_delay_augmented(ragged, 5, DT).a)

    def test_a_batch_too_short_for_the_delay_lifting_adds_no_columns(self, default_study, tmp_path):
        batch = default_study[0]
        ragged = [truncated(batch, 0, 4, 20), truncated(batch, 4, 6, 2)]  # the second has 3 samples
        data = tmp_path / "data"
        trajectories_to_csv(ragged, data / "trajectories.csv")
        write_json({"state_dim": 2, "input_dim": 1, "dt": DT}, data / "manifest.json")
        for name in ("dmdc", "edmdc", "delay"):
            assert main(["fit", str(data), "--model", name, "--out", str(tmp_path / "fit")]) == 0
        saved = read_json(tmp_path / "fit" / "model_delay.json")
        assert np.array_equal(np.asarray(saved["a"]), fit_delay_augmented(ragged[:1], 5, DT).a)
        assert saved["training_hash"] == read_json(tmp_path / "fit" / "model_dmdc.json")["training_hash"]
