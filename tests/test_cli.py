import csv
import dataclasses
import json
import math
import os
import platform
import shutil

import numpy as np
import pytest
import scipy

from koopmpc import ConfigError, InvalidInputError
from koopmpc.cli import main
from koopmpc.config import ExperimentConfig, parse_config
from koopmpc.io import model_from_json, read_json

from conftest import read_chain


SMALL_CONFIG = {
    "n_trajectories": 12,
    "n_validation": 4,
    "mpc_t_end": 2.0,
    "ic_grid_n": 3,
    "ulam_counts": [3, 3],
    "ulam_samples_per_box": 40,
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    payload = dict(SMALL_CONFIG)
    payload.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseConfig:
    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.mu == 0.2
        assert cfg.n_trajectories == 200
        assert cfg.dt == 0.05
        assert cfg.edmdc_order == 5
        assert cfg.delay_depth == 5
        assert cfg.mpc_horizon == 15
        assert cfg.input_weight == 0.1
        assert cfg.u_max == 5.0 and cfg.du_max == 50.0

    def test_single_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mu": 1.0}')
        cfg = parse_config(path)
        assert cfg.mu == 1.0
        assert cfg.n_trajectories == 200  # everything else stays default

    def test_unknown_key_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"horizonn": 10}')
        with pytest.raises(ConfigError, match="horizonn"):
            parse_config(path)

    def test_type_mismatch_names_the_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_trajectories": "many"}')
        with pytest.raises(ConfigError, match="n_trajectories"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key",
        [f.name for f in dataclasses.fields(ExperimentConfig) if type(f.default) in (int, bool)],
    )
    def test_wrongly_typed_int_or_bool_names_the_key(self, key):
        from koopmpc.config import config_from_mapping

        wrong = 1 if isinstance(getattr(ExperimentConfig(), key), bool) else 2.5
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: wrong})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "missing.json")

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": -1}')
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"u_max": NaN}', "u_max"),
            ('{"du_max": NaN}', "du_max"),
            ('{"reference": [NaN, 0]}', "reference"),
            ('{"success_threshold": NaN}', "success_threshold"),
            ('{"dt": Infinity}', "dt"),
            ('{"mu": -Infinity}', "mu"),
            ('{"state_weight": [[1, 0], [0, Infinity]]}', "state_weight"),
            ('{"ulam_counts": [Infinity, 4]}', "ulam_counts"),
            ('{"training_box": [[-6, NaN], [-6, 6]]}', "training_box"),
        ],
    )
    def test_non_finite_number_is_rejected(self, tmp_path, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{key}.*finite"):
            parse_config(path)

    def test_non_numeric_list_names_the_key(self):
        from koopmpc.config import config_from_mapping

        with pytest.raises(ConfigError, match="'reference' must hold numbers"):
            config_from_mapping({"reference": ["a", 0]})

    def test_input_bounds_may_be_infinite(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"u_min": -Infinity, "u_max": Infinity, "du_min": -Infinity, "du_max": Infinity}')
        cfg = parse_config(path)
        assert (cfg.u_min, cfg.u_max, cfg.du_min, cfg.du_max) == (-math.inf, math.inf, -math.inf, math.inf)

    def test_resolved_echo_is_complete(self):
        cfg = ExperimentConfig()
        echo = cfg.resolved()
        assert echo["mu"] == 0.2
        assert set(echo) == {f for f in cfg.__dataclass_fields__}


class TestGenerate:
    def test_single_snapshot_row(self, tmp_path):
        cfg = write_config(tmp_path, {"n_trajectories": 1, "training_t_end": 0.05})
        out = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trajectories.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + the two states of one snapshot pair

    def test_manifest_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "data"
        main(["generate", "--config", str(cfg), "--out", str(out)])
        manifest = read_json(out / "manifest.json")
        assert manifest["state_dim"] == 2
        assert manifest["config"]["n_trajectories"] == 12
        assert manifest["n_divergent"] == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "trajectories.csv"]

    @pytest.mark.parametrize("dt", [None, "missing", "0.05"])
    def test_fit_exits_3_on_a_null_or_non_numeric_manifest_dt(self, tmp_path, capsys, dt):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        main(["generate", "--config", str(cfg), "--out", str(data)])
        manifest = read_json(data / "manifest.json")
        manifest["dt"] = dt
        if dt == "missing":
            del manifest["dt"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert main(["fit", str(data), "--model", "dmdc", "--out", str(tmp_path / "fit")]) == 3
        assert "dt must be a number" in capsys.readouterr().err


class TestFitRoundTrip:
    @pytest.mark.parametrize("model_name", ["dmdc", "edmdc", "delay"])
    def test_fit_reload_identical(self, tmp_path, model_name):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        main(["generate", "--config", str(cfg), "--out", str(data)])
        out = tmp_path / "fit"
        assert main([
            "fit", str(data), "--model", model_name, "--config", str(cfg), "--out", str(out)
        ]) == 0
        path = out / f"model_{model_name}.json"
        first = model_from_json(path)
        raw = read_json(path)
        again_path = tmp_path / "again.json"
        from koopmpc.io import model_to_json

        model_to_json(first, again_path)
        assert read_json(again_path) == raw  # reload and re-save is lossless

    def test_fit_matches_the_benchmark_fit(self, tmp_path):
        from koopmpc.benchmark import fit_models, make_training_data

        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        main(["generate", "--config", str(cfg), "--out", str(data)])
        main(["fit", str(data), "--model", "edmdc", "--config", str(cfg), "--out", str(tmp_path)])
        fitted = model_from_json(tmp_path / "model_edmdc.json")
        config = parse_config(cfg)
        _, trajectories, samples = make_training_data(config)
        want = fit_models(config, trajectories, samples)["edmdc"]
        assert fitted.training_hash == want.training_hash
        assert np.array_equal(fitted.a, want.a) and np.array_equal(fitted.b, want.b)

    def test_predict_runs_on_fit_output(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        main(["generate", "--config", str(cfg), "--out", str(data)])
        fit_dir = tmp_path / "fit"
        main(["fit", str(data), "--model", "dmdc", "--config", str(cfg), "--out", str(fit_dir)])
        out = tmp_path / "pred"
        assert main([
            "predict", str(fit_dir / "model_dmdc.json"), str(data),
            "--config", str(cfg), "--out", str(out),
        ]) == 0
        errors = read_json(out / "prediction_errors_dmdc.json")
        assert errors["rollout_rms_median"] is not None

    def test_mpc_command(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        main(["generate", "--config", str(cfg), "--out", str(data)])
        fit_dir = tmp_path / "fit"
        main(["fit", str(data), "--model", "edmdc", "--config", str(cfg), "--out", str(fit_dir)])
        out = tmp_path / "mpc"
        assert main([
            "mpc", str(fit_dir / "model_edmdc.json"), "--config", str(cfg), "--out", str(out),
        ]) == 0
        summary = read_json(out / "closed_loop_edmdc.json")
        assert summary["n_steps"] == 40


@pytest.fixture(scope="module")
def fitted_edmdc(tmp_path_factory):
    """Generated data and a fitted edmdc model file, shared by the tests below."""
    root = tmp_path_factory.mktemp("edmdc")
    cfg = write_config(root)
    main(["generate", "--config", str(cfg), "--out", str(root / "data")])
    main(["fit", str(root / "data"), "--model", "edmdc", "--config", str(cfg), "--out", str(root / "fit")])
    return cfg, root / "data", root / "fit" / "model_edmdc.json"


def _edit_exponent(rows, value):
    rows[3][0] = value


def _drop_column(rows):
    for row in rows:
        row.pop()


class TestMalformedModelFile:
    EDITS = {
        "non-integer": lambda rows: _edit_exponent(rows, 1.5),
        "negative": lambda rows: _edit_exponent(rows, -1),
        "wrong-shape": _drop_column,
        "ragged": lambda rows: rows[4].append(0),
    }

    def _edited(self, path, tmp_path, edit):
        raw = read_json(path)
        self.EDITS[edit](raw["lifting"]["exponents"])
        out = tmp_path / "edited.json"
        out.write_text(json.dumps(raw))
        return out

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_model_from_json_rejects(self, fitted_edmdc, tmp_path, edit):
        from koopmpc import InvalidInputError

        _, _, model_path = fitted_edmdc
        with pytest.raises(InvalidInputError):
            model_from_json(self._edited(model_path, tmp_path, edit))

    @pytest.mark.parametrize("edit", ["non-integer", "negative"])
    def test_predict_exits_3(self, fitted_edmdc, tmp_path, edit):
        cfg, data, model_path = fitted_edmdc
        assert main([
            "predict", str(self._edited(model_path, tmp_path, edit)), str(data),
            "--config", str(cfg), "--out", str(tmp_path / "pred"),
        ]) == 3

    @staticmethod
    def _with_dt(path, tmp_path, dt):
        raw = read_json(path)
        raw["dt"] = dt
        if dt == "missing":
            del raw["dt"]
        out = tmp_path / "edited_dt.json"
        out.write_text(json.dumps(raw))  # NaN and Infinity as JSON literals
        return out

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.05])
    def test_model_from_json_rejects_a_bad_dt(self, fitted_edmdc, tmp_path, dt):
        from koopmpc import InvalidInputError

        _, _, model_path = fitted_edmdc
        with pytest.raises(InvalidInputError, match="dt must be positive and finite"):
            model_from_json(self._with_dt(model_path, tmp_path, dt))

    def test_mpc_exits_3_on_a_nan_dt(self, fitted_edmdc, tmp_path, capsys):
        cfg, _, model_path = fitted_edmdc
        assert main([
            "mpc", str(self._with_dt(model_path, tmp_path, float("nan"))),
            "--config", str(cfg), "--out", str(tmp_path / "mpc"),
        ]) == 3
        assert "dt must be positive and finite" in capsys.readouterr().err


    @staticmethod
    def _with_null_entry(path, tmp_path, matrix):
        raw = read_json(path)
        raw[matrix][0][0] = None
        out = tmp_path / f"null_{matrix}.json"
        out.write_text(json.dumps(raw))
        return out

    @pytest.mark.parametrize("matrix", ["a", "b", "c"])
    def test_model_from_json_rejects_a_null_matrix_entry(self, fitted_edmdc, tmp_path, matrix):
        from koopmpc import InvalidInputError

        _, _, model_path = fitted_edmdc
        with pytest.raises(InvalidInputError, match=f"model matrix {matrix} is not finite"):
            model_from_json(self._with_null_entry(model_path, tmp_path, matrix))

    def test_mpc_exits_3_on_a_null_matrix_entry(self, fitted_edmdc, tmp_path, capsys):
        cfg, _, model_path = fitted_edmdc
        assert main([
            "mpc", str(self._with_null_entry(model_path, tmp_path, "a")),
            "--config", str(cfg), "--out", str(tmp_path / "mpc"),
        ]) == 3
        assert "model matrix a is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", [None, "missing", "0.05", [0.05], True])
    def test_model_from_json_rejects_a_null_or_non_numeric_dt(self, fitted_edmdc, tmp_path, dt):
        from koopmpc import InvalidInputError

        _, _, model_path = fitted_edmdc
        with pytest.raises(InvalidInputError, match="dt must be a number"):
            model_from_json(self._with_dt(model_path, tmp_path, dt))

    def test_mpc_exits_3_on_a_null_dt(self, fitted_edmdc, tmp_path, capsys):
        cfg, _, model_path = fitted_edmdc
        assert main([
            "mpc", str(self._with_dt(model_path, tmp_path, None)),
            "--config", str(cfg), "--out", str(tmp_path / "mpc"),
        ]) == 3
        assert "dt must be a number, got None" in capsys.readouterr().err


class TestMalformedJsonInputs:
    """Malformed model files and manifests exit 3 with an ``error:`` line, not a traceback."""

    def test_mpc_exits_3_on_a_model_without_b(self, fitted_edmdc, tmp_path, capsys):
        cfg, _, model_path = fitted_edmdc
        raw = read_json(model_path)
        del raw["b"]
        edited = tmp_path / "no_b.json"
        edited.write_text(json.dumps(raw))
        assert main(["mpc", str(edited), "--config", str(cfg), "--out", str(tmp_path / "mpc")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: model file") and "'b'" in err

    def test_mpc_exits_3_on_a_model_that_is_not_json(self, fitted_edmdc, tmp_path, capsys):
        cfg, _, _ = fitted_edmdc
        edited = tmp_path / "model.json"
        edited.write_text("a,b\n1,2\n")
        assert main(["mpc", str(edited), "--config", str(cfg), "--out", str(tmp_path / "mpc")]) == 3
        assert "is not valid JSON" in capsys.readouterr().err

    def test_mpc_exits_3_on_a_model_that_is_not_an_object(self, fitted_edmdc, tmp_path, capsys):
        cfg, _, _ = fitted_edmdc
        edited = tmp_path / "model.json"
        edited.write_text("[1, 2]")
        assert main(["mpc", str(edited), "--config", str(cfg), "--out", str(tmp_path / "mpc")]) == 3
        assert "does not hold a JSON object" in capsys.readouterr().err

    def test_fit_exits_3_on_a_manifest_that_is_not_an_object(self, fitted_edmdc, tmp_path, capsys):
        _, data, _ = fitted_edmdc
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        (copy / "manifest.json").write_text('"state_dim"')
        assert main(["fit", str(copy), "--model", "dmdc", "--out", str(tmp_path / "fit")]) == 3
        assert "does not hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("a", "abc", "a must be a numeric array"),
            ("a", [[1, 2], [3]], "a must be a numeric array"),
            ("c", {"x": 1}, "c must be a numeric array"),
            ("lifting", [1, 2], "lifting must be a JSON object"),
        ],
        ids=["non-numeric", "ragged", "object", "list-lifting"],
    )
    def test_mpc_exits_3_on_a_malformed_model_entry(self, fitted_edmdc, tmp_path, capsys, key, value, message):
        cfg, _, model_path = fitted_edmdc
        raw = read_json(model_path)
        raw[key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(raw))
        assert main(["mpc", str(edited), "--config", str(cfg), "--out", str(tmp_path / "mpc")]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"state_dim": "2"}, "state_dim must be an integer >= 1, got '2'"),
            ({"input_dim": "x"}, "input_dim must be an integer >= 0, got 'x'"),
            ({"d2": 4}, "delay depths d1=5 and d2=4 differ"),
        ],
        ids=["string-state-dim", "string-input-dim", "unequal-depths"],
    )
    def test_mpc_exits_3_on_a_malformed_delay_lifting(self, fitted_x1, tmp_path, capsys, edit, message):
        cfg, data = fitted_x1
        raw = read_json(data.parent / "model_delay.json")
        assert raw["lifting"]["d1"] == raw["lifting"]["d2"] == 5
        raw["lifting"].update(edit)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(raw))
        assert main(["mpc", str(edited), "--config", str(cfg), "--out", str(tmp_path / "mpc")]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["mpc", "predict"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"kind": "x/../../escape"}, "kind must be one of ['dmdc', 'edmdc', 'delay-augmented'], got 'x/"),
            ({"kind": 5}, "kind must be one of"),
            ({"fit_residual": "abc"}, "fit_residual must be a number, got 'abc'"),
            ({"fit_residual": [1]}, "fit_residual must be a number, got [1]"),
            ({"training_hash": 5}, "training_hash must be a string, got 5"),
        ],
        ids=["path-kind", "number-kind", "string-residual", "list-residual", "number-hash"],
    )
    def test_exits_3_on_a_malformed_model_field(self, fitted_x1, tmp_path, capsys, command, edit, message):
        cfg, data = fitted_x1
        raw = read_json(data.parent / "model_dmdc.json")
        raw.update(edit)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(raw))
        out = tmp_path / "out" / "inner"
        inputs = [str(data)] if command == "predict" else []
        assert main([command, str(edited), *inputs, "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
        # Nothing is written, inside --out or beside it.
        assert sorted(tmp_path.rglob("*")) == [edited, tmp_path / "out", out]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: [row[:-1] for row in rows], "has 4 columns, not traj, t, 2 states and 1 inputs"),
            (lambda rows: rows[:1], "has no data rows"),
            (lambda rows: rows[:2] + [rows[2][:-1]] + rows[3:], "is not a trajectory table"),
        ],
        ids=["no-input-column", "header-only", "ragged"],
    )
    def test_fit_exits_3_on_a_malformed_trajectory_table(self, fitted_x1, tmp_path, capsys, edit, message):
        _, data = fitted_x1
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        with open(copy / "trajectories.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(copy / "trajectories.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(edit(rows))
        assert main(["fit", str(copy), "--model", "dmdc", "--out", str(tmp_path / "fit")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("reader", [model_from_json])
    def test_readers_reject_a_file_that_is_not_an_object(self, tmp_path, reader):
        path = tmp_path / "file.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidInputError, match="does not hold a JSON object"):
            reader(path)

    @staticmethod
    def _data_with_manifest(data, tmp_path, key, value):
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        manifest = read_json(copy / "manifest.json")
        manifest[key] = value
        if value == "missing":
            del manifest[key]
        (copy / "manifest.json").write_text(json.dumps(manifest))
        return copy

    def test_fit_exits_3_on_a_manifest_without_input_dim(self, fitted_edmdc, tmp_path, capsys):
        _, data, _ = fitted_edmdc
        edited = self._data_with_manifest(data, tmp_path, "input_dim", "missing")
        assert main(["fit", str(edited), "--model", "dmdc", "--out", str(tmp_path / "fit")]) == 3
        assert "error: input_dim must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.5, "2", None])
    def test_predict_exits_3_on_a_non_integer_state_dim(self, fitted_edmdc, tmp_path, capsys, value):
        cfg, data, model_path = fitted_edmdc
        edited = self._data_with_manifest(data, tmp_path, "state_dim", value)
        assert main([
            "predict", str(model_path), str(edited), "--config", str(cfg), "--out", str(tmp_path / "pred"),
        ]) == 3
        assert "error: state_dim must be an integer" in capsys.readouterr().err


class TestUlamCommand:
    def test_level_csv_triplets_rebuild_the_chain(self, tmp_path):
        cfg = write_config(tmp_path, {"ulam_counts": [4, 4], "ulam_samples_per_box": 20})
        out = tmp_path / "ulam"
        assert main(["ulam", "--config", str(cfg), "--out", str(out)]) == 0
        chain = read_chain(out / "chain.json")
        for i, mat in enumerate(chain.mats):
            with open(out / f"chain_level_{i}.csv", encoding="utf-8") as fh:
                lines = list(csv.reader(fh))
            assert lines[0] == ["row", "col", "value"]
            p = np.zeros_like(mat.p)
            for row, col, value in lines[1:]:
                p[int(row), int(col)] = float(value)
            assert len(lines) - 1 == np.count_nonzero(mat.p)
            assert np.array_equal(p, mat.p)

    def test_densities_are_normalized_fixed_points_of_their_level(self, tmp_path):
        cfg = write_config(tmp_path, {"ulam_counts": [4, 4], "ulam_samples_per_box": 20})
        out = tmp_path / "ulam"
        assert main(["ulam", "--config", str(cfg), "--out", str(out)]) == 0
        chain = read_chain(out / "chain.json")
        entries = read_json(out / "densities.json")["densities"]
        assert len(entries) == len(chain.mats)
        for entry, level, mat in zip(entries, chain.levels, chain.mats):
            assert set(entry) == {"level", "density"}
            assert entry["level"] == list(level)
            pi = np.asarray(entry["density"])
            assert np.abs(mat.p @ pi - pi).sum() <= 1e-12
            assert abs(pi.sum() - 1.0) <= 1e-12


class TestBenchmarkCommand:
    def test_report_structure(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert sorted(report["models"]) == ["delay", "dmdc", "edmdc"]
        for name in report["models"]:
            assert set(report["models"][name]) == {"one_step_rms_median", "rollout_rms_median"}
        n_val = report["config"]["n_validation"]
        n_grid = report["config"]["ic_grid_n"] ** 2
        for name in report["models"]:
            assert len(report["mpc"]["validation"][name]["per_ic"]) == n_val
            assert len(report["mpc"]["grid"][name]["per_ic"]) == n_grid
        assert (out / "per_ic_costs.csv").exists()
        assert (out / "validation_errors.csv").exists()
        assert (out / "run_info.json").exists()

    def test_every_reported_number_is_finite(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "bench"
        main(["benchmark", "--config", str(cfg), "--out", str(out)])
        report = read_json(out / "report.json")

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, float):
                assert np.isfinite(node)

        walk(report)

    def test_run_info_records_the_environment_outside_the_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        info = read_json(out / "run_info.json")
        assert info["wall_time_seconds"] > 0.0
        assert info["cpu_count"] == os.cpu_count()
        assert info["python"] == platform.python_version()
        assert (info["numpy"], info["scipy"]) == (np.__version__, scipy.__version__)
        report = (out / "report.json").read_text()
        for key in info:
            assert f'"{key}"' not in report

    def test_run_info_records_stage_seconds_outside_the_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        stages = read_json(out / "run_info.json")["stage_seconds"]
        sweeps = {
            f"control-{section}-{name}"
            for section in ("validation", "grid")
            for name in ("dmdc", "edmdc", "delay")
        }
        assert set(stages) == {
            "training-data", "model-fitting", "validation-data", "prediction-errors"
        } | sweeps
        assert all(0.0 < seconds < math.inf for seconds in stages.values())
        report = (out / "report.json").read_text()
        assert "stage_seconds" not in report and "training-data" not in report


class TestSchemaStability:
    def test_csv_headers_are_fixed(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        main(["generate", "--config", str(cfg), "--out", str(data)])
        assert (data / "trajectories.csv").read_text().splitlines()[0] == (
            "traj,t,x1,x2,u1"
        )
        fit_dir = tmp_path / "fit"
        main(["fit", str(data), "--model", "dmdc", "--config", str(cfg), "--out", str(fit_dir)])
        out = tmp_path / "mpc"
        main(["mpc", str(fit_dir / "model_dmdc.json"), "--config", str(cfg), "--out", str(out)])
        assert (out / "closed_loop_dmdc.csv").read_text().splitlines()[0] == (
            "t,x1,x2,u1,stage_cost,cumulative_cost"
        )


class TestReportEcho:
    def test_config_echo_reruns_identically(self, tmp_path):
        from koopmpc.benchmark import run_benchmark
        from koopmpc.config import config_from_mapping
        from koopmpc.io import jsonify

        cfg = config_from_mapping(dict(SMALL_CONFIG))
        report, _ = run_benchmark(cfg)
        echoed = config_from_mapping(report["config"])
        report2, _ = run_benchmark(echoed)
        assert jsonify(report) == jsonify(report2)


@pytest.fixture(scope="module")
def fitted_x1(tmp_path_factory):
    """Generated data and dmdc, edmdc and x1-only delay model files."""
    root = tmp_path_factory.mktemp("x1")
    cfg = write_config(root, {"delay_full_state": False})
    main(["generate", "--config", str(cfg), "--out", str(root / "data")])
    for name in ("dmdc", "edmdc", "delay"):
        main(["fit", str(root / "data"), "--model", name, "--config", str(cfg), "--out", str(root)])
    return cfg, root / "data"


class TestPredictScoresLikeTheBenchmark:
    @pytest.mark.parametrize("name", ["dmdc", "edmdc", "delay"])
    def test_rms_lists_equal_prediction_errors(self, fitted_x1, tmp_path, name):
        from koopmpc.benchmark import prediction_errors
        from koopmpc.io import trajectories_from_csv

        cfg, data = fitted_x1
        model_path = data.parent / f"model_{name}.json"
        assert main([
            "predict", str(model_path), str(data), "--config", str(cfg), "--out", str(tmp_path),
        ]) == 0
        model = model_from_json(model_path)
        summary = read_json(tmp_path / f"prediction_errors_{model.kind}.json")
        trajectories = trajectories_from_csv(data / "trajectories.csv", 2, 1)
        scores = prediction_errors({name: model}, trajectories, parse_config(cfg).prediction_horizon)
        assert summary["rollout_rms_per_trajectory"] == scores[name]["rollout_rms"]
        assert summary["start_index"] == scores[name]["start_index"]

    def test_delay_file_with_another_lag_exits_3(self, fitted_x1, tmp_path):
        cfg, data = fitted_x1
        raw = read_json(data.parent / "model_delay.json")
        raw["lifting"]["tau_steps"] = 2
        path = tmp_path / "lagged.json"
        path.write_text(json.dumps(raw))
        assert main(["predict", str(path), str(data), "--config", str(cfg), "--out", str(tmp_path)]) == 3

    @staticmethod
    def _delay_file_with_coords(data, tmp_path, coords):
        raw = read_json(data.parent / "model_delay.json")
        raw["lifting"]["coords"] = coords
        path = tmp_path / "bad_coords.json"
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize("coords", [[0, 7], [], [-1], [0.0], 1])
    def test_delay_file_with_bad_coords_raises(self, fitted_x1, tmp_path, coords):
        from koopmpc import InvalidInputError

        _, data = fitted_x1
        with pytest.raises(InvalidInputError, match="coords"):
            model_from_json(self._delay_file_with_coords(data, tmp_path, coords))

    def test_mpc_on_a_delay_file_with_bad_coords_exits_3(self, fitted_x1, tmp_path, capsys):
        cfg, data = fitted_x1
        path = self._delay_file_with_coords(data, tmp_path, [0, 7])
        assert main(["mpc", str(path), "--config", str(cfg), "--out", str(tmp_path / "mpc")]) == 3
        assert "coords [0, 7] must be" in capsys.readouterr().err

    def test_delay_file_with_a_fractional_depth_raises(self, fitted_x1, tmp_path):
        from koopmpc import InvalidInputError

        _, data = fitted_x1
        raw = read_json(data.parent / "model_delay.json")
        raw["lifting"]["d1"] = 2.5
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(InvalidInputError, match="d1 must be an integer >= 1, got 2.5"):
            model_from_json(path)

    def test_delay_file_with_unit_lag_still_loads(self, fitted_x1, tmp_path):
        _, data = fitted_x1
        raw = read_json(data.parent / "model_delay.json")
        assert "tau_steps" not in raw["lifting"]
        raw["lifting"]["tau_steps"] = 1
        path = tmp_path / "unit_lag.json"
        path.write_text(json.dumps(raw))
        back = model_from_json(path)
        assert back.lifting == model_from_json(data.parent / "model_delay.json").lifting

    def test_trajectories_shorter_than_the_horizon_exit_3(self, fitted_x1, tmp_path):
        from koopmpc import InvalidInputError
        from koopmpc.benchmark import prediction_errors
        from koopmpc.io import trajectories_from_csv

        _, data = fitted_x1
        cfg = write_config(tmp_path, {"prediction_horizon": 25})  # trajectories have 20 steps
        model_path = data.parent / "model_dmdc.json"
        assert main(["predict", str(model_path), str(data), "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "prediction_errors_dmdc.json").exists()
        trajectories = trajectories_from_csv(data / "trajectories.csv", 2, 1)
        with pytest.raises(InvalidInputError, match="too short"):
            prediction_errors({"dmdc": model_from_json(model_path)}, trajectories, 25)


class TestPartialStateDelay:
    def test_scalar_embedding_scores_observed_coordinate(self):
        from koopmpc.benchmark import (
            fit_models,
            make_training_data,
            make_validation_trajectories,
            prediction_errors,
        )
        from koopmpc.config import config_from_mapping

        cfg = config_from_mapping({
            "seed": 2, "n_trajectories": 30, "n_validation": 4,
            "delay_full_state": False, "models": ["delay"],
            "run_mpc_validation": False, "run_mpc_grid": False,
        })
        plant, trajs, samples = make_training_data(cfg)
        models = fit_models(cfg, trajs, samples)
        assert models["delay"].recovered_dim == 1
        validation = make_validation_trajectories(cfg, plant)
        errors = prediction_errors(models, validation, cfg.prediction_horizon)
        rms = errors["delay"]["rollout_rms"]
        assert len(rms) == 4
        assert all(np.isfinite(v) for v in rms)

    def test_predict_scores_observed_coordinate(self, tmp_path):
        cfg = write_config(tmp_path, {"delay_full_state": False})
        data = tmp_path / "data"
        main(["generate", "--config", str(cfg), "--out", str(data)])
        main(["fit", str(data), "--model", "delay", "--config", str(cfg), "--out", str(tmp_path)])
        out = tmp_path / "pred"
        assert main([
            "predict", str(tmp_path / "model_delay.json"), str(data),
            "--config", str(cfg), "--out", str(out),
        ]) == 0
        summary = read_json(out / "prediction_errors_delay-augmented.json")
        rows = np.genfromtxt(out / "predictions_delay-augmented.csv", delimiter=",", names=True)
        for idx, got in enumerate(summary["rollout_rms_per_trajectory"]):
            mine = rows[(rows["traj"] == idx) & (rows["step"] > summary["start_index"])]
            expected = np.sqrt(np.mean((mine["pred1"] - mine["x1"]) ** 2))
            assert got == pytest.approx(expected, rel=1e-12)


    def test_control_runs_for_partial_state_delay(self, tmp_path):
        from koopmpc.benchmark import run_benchmark
        from koopmpc.config import config_from_mapping

        cfg = config_from_mapping(dict(SMALL_CONFIG, delay_full_state=False))
        report, models = run_benchmark(cfg)
        assert models["delay"].recovered_dim == 1
        for section in ("validation", "grid"):
            for name in ("dmdc", "edmdc", "delay"):
                per_ic = report["mpc"][section][name]["per_ic"]
                assert per_ic and all(entry["failed"] is None for entry in per_ic)

        path = write_config(tmp_path, {"delay_full_state": False})
        data = tmp_path / "data"
        main(["generate", "--config", str(path), "--out", str(data)])
        main(["fit", str(data), "--model", "delay", "--config", str(path), "--out", str(tmp_path)])
        assert main([
            "mpc", str(tmp_path / "model_delay.json"), "--config", str(path),
            "--out", str(tmp_path / "mpc"),
        ]) == 0


class TestGridInAnyDimension:
    CFG = ExperimentConfig(ic_grid_box=[[-1.0, 1.0], [-2.0, 2.0], [-3.0, 3.0]], ic_grid_n=2)

    def test_corners_in_row_major_order(self):
        from koopmpc.benchmark import grid_initial_conditions

        ics = grid_initial_conditions(self.CFG)
        expected = [[a, b, c] for a in (-1.0, 1.0) for b in (-2.0, 2.0) for c in (-3.0, 3.0)]
        assert [ic.tolist() for ic in ics] == expected

    def test_band_rates_count_every_corner(self):
        from koopmpc.benchmark import grid_band_rates, grid_initial_conditions

        ics = grid_initial_conditions(self.CFG)
        results = [{"ic": ic.tolist(), "stabilized": k % 2 == 0} for k, ic in enumerate(ics)]
        assert grid_band_rates(results, 2) == [{"ring": 0.5, "success_rate": 0.5, "n_ics": 8}]

    def test_cost_table_header_follows_the_ic_length(self, tmp_path):
        from koopmpc.cli import _write_cost_table

        entry = {"ic": [1.0, 2.0, 3.0], "cost": 0.5, "stabilized": True}
        report = {"mpc": {"grid": {"dmdc": {"per_ic": [entry]}}}}
        _write_cost_table(report, tmp_path / "costs.csv")
        assert (tmp_path / "costs.csv").read_bytes() == (
            b"section,index,ic1,ic2,ic3,dmdc_cost,dmdc_stabilized\r\n"
            b"grid,0,1.0,2.0,3.0,0.5,1\r\n"
        )


class TestStageErrors:
    def test_failing_stage_is_named_and_partials_survive(self, tmp_path):
        from koopmpc import InsufficientDataError
        from koopmpc.benchmark import run_benchmark
        from koopmpc.config import config_from_mapping

        # Depth-5 delays cannot be built from a single-step horizon.
        cfg = config_from_mapping({
            "n_trajectories": 8, "training_t_end": 0.05, "n_validation": 2,
        })
        with pytest.raises(InsufficientDataError, match="model-fitting"):
            run_benchmark(cfg)
        try:
            run_benchmark(cfg)
        except InsufficientDataError as err:
            assert err.partial_report["config"]["n_trajectories"] == 8

    def test_a_convergence_failure_is_recorded_per_ic(self, monkeypatch):
        import koopmpc.mpc
        from koopmpc import ConvergenceError
        from koopmpc.benchmark import run_benchmark
        from koopmpc.config import config_from_mapping

        def no_convergence(*args, **kwargs):
            raise ConvergenceError("QP iteration budget exhausted")

        monkeypatch.setattr(koopmpc.mpc, "solve_qp_info", no_convergence)
        # |u| <= 0.1 binds on the first step from every IC, so every run calls the solver.
        cfg = config_from_mapping({
            "n_trajectories": 12, "n_validation": 2, "mpc_t_end": 0.5, "ic_grid_n": 2,
            "u_min": -0.1, "u_max": 0.1, "models": ["dmdc"],
        })
        report, _ = run_benchmark(cfg)
        per_ic = [entry for sweep in report["mpc"].values() for entry in sweep["dmdc"]["per_ic"]]
        assert len(per_ic) == 2 + 4
        for entry in per_ic:
            assert entry["failed"] == "ConvergenceError"
            assert entry["cost"] is None and not entry["stabilized"]


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "nope" in capsys.readouterr().err

    def test_nan_in_config_exits_2(self, tmp_path, capsys):
        bad = write_config(tmp_path, {"n_trajectories": 1, "training_t_end": 0.05, "u_max": math.nan})
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "'u_max' must be a finite number" in capsys.readouterr().err

    def test_runtime_error_exits_3(self, tmp_path, capsys):
        # fit pointed at a directory that generate never wrote
        assert main(["fit", str(tmp_path / "missing"), "--model", "dmdc",
                     "--out", str(tmp_path / "x")]) == 3

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])  # missing required positional and --model
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["fit", "data", "--model", "dmdc"], ["predict", "m.json", "data"],
                                         ["mpc", "m.json"]])
    def test_seed_is_a_usage_error_where_nothing_is_drawn(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
