import json

import numpy as np
import pytest

from windramp import ParamGrid, generate_series, load_model, write_series
from windramp.cli import main

LAGS = 12


@pytest.fixture
def workspace(tmp_path):
    """A 2000-point synthetic series, a small-model config and the argv
    that points every stage at them."""
    csv = tmp_path / "series.csv"
    write_series(generate_series(2000, rated_capacity_mw=20.0, seed=3), csv)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"version": 1, "hyperparams": {"n_estimators": 3, "max_depth": 2}}))
    out = tmp_path / "out"

    def argv(stage, *extra, out_dir=out):
        return [
            stage, "--config", str(config), "--data", str(csv), "--capacity-mw", "20",
            "--lags", str(LAGS), "--horizons", "1,3", "--seed", "4", "--out", str(out_dir), *extra,
        ]

    return {"csv": csv, "config": config, "out": out, "argv": argv}


def error_line(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestPipeline:
    def test_prepare_writes_reports_only(self, workspace):
        assert main(workspace["argv"]("prepare")) == 0
        out = workspace["out"]
        doc = json.loads((out / "reports" / "distribution.json").read_text())
        assert set(doc["horizons"]) == {"1", "3"}
        assert (out / "config.resolved.json").exists()
        assert not (out / "datasets").exists()
        assert not list((out / "models").iterdir())

    def test_train_runs_without_prepare(self, workspace):
        assert main(workspace["argv"]("train")) == 0
        models = workspace["out"] / "models"
        for s in (1, 3):
            assert load_model(models / f"horizon_{s}.model.json").n_features == LAGS
            record = json.loads((models / f"horizon_{s}.split.json").read_text())
            assert set(record) == {"seed", "test_fraction", "dataset_sha256"}
            assert (record["seed"], record["test_fraction"]) == (4, 0.2)
        assert main(workspace["argv"]("evaluate")) == 0
        doc = json.loads((workspace["out"] / "reports" / "evaluation.json").read_text())
        assert [m["model"] for m in doc["models"]] == ["gbrt", "persistence", "majority"]

    def test_evaluate_without_model_exits_3(self, workspace, capsys):
        assert main(workspace["argv"]("evaluate")) == 3
        err = error_line(capsys)
        assert err["error"] == "data" and "missing" in err["message"]

    def test_evaluate_after_series_changed_exits_3(self, workspace, capsys):
        assert main(workspace["argv"]("train")) == 0
        write_series(generate_series(2000, rated_capacity_mw=20.0, seed=5), workspace["csv"])
        assert main(workspace["argv"]("evaluate")) == 3
        err = error_line(capsys)
        assert err["error"] == "data" and "changed" in err["message"]

    @pytest.mark.parametrize("edit, code, kind", [
        (lambda ws: ws["csv"].unlink(), 3, "data"),
        (lambda ws: (ws["csv"].unlink(), ws["csv"].mkdir()), 3, "data"),
        (lambda ws: ws["csv"].write_bytes(b"timestamp,power_mw\n600,\xff\n"), 3, "data"),
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\n600," + "1" * 200_000 + "\n"), 3, "data"),
        (lambda ws: ws["config"].write_bytes(b'{"version": 1, "site_id": "\xff"}'), 2, "config"),
        (lambda ws: ws["config"].write_text('{"grid": ' + "[" * 100_000 + "]" * 100_000 + "}"), 2, "config"),
    ], ids=["missing_series", "directory_series", "non_utf8_series", "oversized_field", "non_utf8_config",
            "deeply_nested_config"])
    def test_unreadable_input_exits_with_its_code(self, workspace, capsys, edit, code, kind):
        edit(workspace)
        assert main(workspace["argv"]("train")) == code
        assert error_line(capsys)["error"] == kind

    def test_evaluation_identical_across_workers(self, workspace, tmp_path):
        """Every model and split file, every grid report and the evaluation
        report are byte for byte the same whether the fits of three horizons
        run in this process or on two worker processes."""
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            for stage in ("train", "evaluate"):
                argv = workspace["argv"](stage, "--workers", str(workers), "--grid", "2,3x1,2x2",
                                         "--horizons", "1,3,6", out_dir=out)
                assert main(argv) == 0
            files = [out / "reports" / "evaluation.json", *sorted((out / "reports").glob("grid_horizon_*.json")),
                     *sorted((out / "models").glob("*.json"))]
            outputs.append({path.relative_to(out): path.read_bytes() for path in files})
        assert len(outputs[0]) == 1 + 3 + 6
        assert outputs[0] == outputs[1]

    def test_no_grid_train_identical_across_workers(self, workspace, tmp_path):
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            assert main(workspace["argv"]("train", "--workers", str(workers), "--horizons", "1,3,6", out_dir=out)) == 0
            assert not list((out / "reports").glob("grid_horizon_*.json"))
            outputs.append({path.name: path.read_bytes() for path in sorted((out / "models").glob("*.json"))})
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1]


class TestPredict:
    @pytest.fixture
    def model_path(self, workspace):
        assert main(workspace["argv"]("train")) == 0
        return workspace["out"] / "models" / "horizon_1.model.json"

    def test_output_matches_model(self, model_path, tmp_path, capsys):
        rows = np.random.default_rng(0).uniform(0.0, 20.0, size=(5, LAGS))
        src = tmp_path / "rows.csv"
        header = ",".join(f"lag_{LAGS - 1 - j}" for j in range(LAGS))
        src.write_text(header + "\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
        capsys.readouterr()
        assert main(["predict", str(model_path), str(src)]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        proba = load_model(model_path).predict_proba(rows)
        assert [line["class"] for line in lines] == list(np.argmax(proba, axis=1) + 1)
        assert np.allclose([line["proba"] for line in lines], proba, atol=1e-6)

    def test_nan_row_exits_3(self, model_path, tmp_path, capsys):
        src = tmp_path / "rows.csv"
        src.write_text(",".join(["nan"] * LAGS) + "\n")
        assert main(["predict", str(model_path), str(src)]) == 3
        assert error_line(capsys)["error"] == "data"

    @pytest.mark.parametrize("case, code, kind", [
        ("non_utf8_model", 4, "training"), ("deeply_nested_model", 4, "training"), ("non_utf8_rows", 3, "data"),
        ("missing_rows", 3, "data"),
    ])
    def test_unreadable_file_exits_with_its_code(self, model_path, tmp_path, capsys, case, code, kind):
        src = tmp_path / "rows.csv"
        if case == "non_utf8_model":
            model_path.write_bytes(b"\xff" + model_path.read_bytes())
        if case == "deeply_nested_model":
            model_path.write_text("[" * 100_000 + "]" * 100_000)
        if case != "missing_rows":
            src.write_bytes(",".join(["1.0"] * LAGS).encode() + (b"\xff\n" if case == "non_utf8_rows" else b"\n"))
        capsys.readouterr()
        assert main(["predict", str(model_path), str(src)]) == code
        assert error_line(capsys)["error"] == kind

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [row.pop() for key in ("feature", "threshold") for row in d[key]], "layout"),
        (lambda d: next(row for row in d["feature"] if max(row[1:]) >= 0).__setitem__(0, -1),
         "below a slot that does not split"),
        (lambda d: d["feature"][0].__setitem__(0, 99), "feature"),
        (lambda d: d["hyperparams"].update(n_estimators=0), "n_estimators"),
        (lambda d: d["hyperparams"].update(n_estimators=2.5), "n_estimators"),
        (lambda d: d["base_score"].__setitem__(2, float("nan")), "non-finite"),
        (lambda d: d["base_score"].__setitem__(0, float("inf")), "non-finite"),
        (lambda d: d.update(learning_rate=float("nan")), "learning_rate"),
        (lambda d: d["hyperparams"].update(learning_rate=float("nan")), "learning_rate"),
        (lambda d: d.update(learning_rate=5.0), "learning_rate"),
        (lambda d: d["threshold"][0].__setitem__(0, float("nan")), "non-finite"),
        (lambda d: d["leaf"][1].__setitem__(0, float("-inf")), "non-finite"),
        (lambda d: d.update(learning_rate=1.0, hyperparams={**d["hyperparams"], "learning_rate": 1.0},
                            leaf=[[1e308] * len(row) for row in d["leaf"]]), "overflow"),
        (lambda d: d.update(num_classes=0, base_score=[]), "num_classes"),
        (lambda d: d.update(num_classes=1, base_score=[0.0]), "num_classes"),
        (lambda d: d.update(version=1), "version 1"),
        (lambda d: d.update(num_classes=4.9, n_features=6.5), "num_classes"),
        (lambda d: d.update(n_features=LAGS + 0.5), "n_features"),
        (lambda d: d.update(n_features=True), "n_features"),
        (lambda d: d.update(n_features="12"), "n_features"),
    ], ids=["layout_length", "split_under_leaf", "feature", "n_estimators_0", "n_estimators_float",
            "nan_base_score", "inf_base_score", "nan_learning_rate", "nan_hyperparams_learning_rate",
            "learning_rate_mismatch", "nan_threshold", "inf_leaf_weight", "huge_leaf_weights",
            "num_classes_0", "num_classes_1", "version_1", "fractional_counts", "n_features_float",
            "n_features_bool", "n_features_string"])
    def test_malformed_model_exits_4(self, model_path, tmp_path, capsys, edit, message):
        doc = json.loads(model_path.read_text())
        assert doc["feature"][0][0] >= 0
        edit(doc)
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc))
        src = tmp_path / "rows.csv"
        src.write_text(",".join(["1.0"] * LAGS) + "\n")
        capsys.readouterr()
        assert main(["predict", str(bad), str(src)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "training" and message in err["message"]


class TestConfig:
    def test_precedence_defaults_then_config_then_flags(self, workspace):
        workspace["config"].write_text(json.dumps({
            "version": 1, "seed": 5, "test_fraction": 0.3, "lag_count": 24, "thresholds_mw": [8.0],
        }))
        assert main(workspace["argv"]("prepare")) == 0
        cfg = json.loads((workspace["out"] / "config.resolved.json").read_text())
        assert cfg["seed"] == 4  # flag over config
        assert cfg["lag_count"] == LAGS  # flag over config
        assert cfg["test_fraction"] == 0.3  # config over default
        assert cfg["thresholds_mw"] == [8.0]  # config over default
        assert cfg["workers"] == 1 and cfg["resolution_s"] == 600  # defaults
        assert cfg["horizons"] == [1, 3]

    def test_threshold_fraction_flag_clears_config_thresholds(self, workspace):
        workspace["config"].write_text(json.dumps({"version": 1, "thresholds_mw": [8.0]}))
        resolved = workspace["out"] / "config.resolved.json"
        assert main(workspace["argv"]("prepare", "--threshold-fraction", "0.3")) == 0
        cfg = json.loads(resolved.read_text())
        assert (cfg["thresholds_mw"], cfg["threshold_fraction"]) == (None, 0.3)
        assert main(workspace["argv"]("prepare", "--threshold-fraction", "0.3", "--threshold-mw", "4,9")) == 0
        assert json.loads(resolved.read_text())["thresholds_mw"] == [4.0, 9.0]

    @pytest.mark.parametrize("hyperparams", [{"n_estimators": 2.5}, {"max_depth": 40}, {"depth": 3},
                                             {"reg_lambda": "x"}, {"reg_lambda": 10**400}],
                             ids=["n_estimators_float", "max_depth_40", "unknown_key", "reg_lambda_string",
                                  "reg_lambda_huge_integer"])
    def test_bad_hyperparams_exit_2(self, workspace, capsys, hyperparams):
        workspace["config"].write_text(json.dumps({"version": 1, "hyperparams": hyperparams}))
        assert main(workspace["argv"]("train")) == 2
        err = error_line(capsys)
        assert err["error"] == "config" and next(iter(hyperparams)) in err["message"]

    def test_missing_capacity_exits_2(self, workspace, capsys):
        argv = workspace["argv"]("prepare")
        i = argv.index("--capacity-mw")
        del argv[i:i + 2]
        assert main(argv) == 2
        assert error_line(capsys)["error"] == "config"

    @pytest.mark.parametrize("key, value", [
        ("rated_capacity_mw", "x"), ("threshold_fraction", "x"), ("test_fraction", "x"), ("lag_count", "x"),
        ("lag_count", 2.5), ("resolution_s", "x"), ("seed", "x"), ("workers", "x"), ("workers", True),
        ("horizons", ["x"]), ("horizons", [1.5]), ("thresholds_mw", ["x"]), ("thresholds_mw", 5),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_non_numeric_value_exits_2(self, workspace, capsys, key, value):
        workspace["config"].write_text(json.dumps({"version": 1, "rated_capacity_mw": 20, key: value}))
        argv = ["prepare", "--config", str(workspace["config"]), "--data", str(workspace["csv"]),
                "--out", str(workspace["out"])]
        assert main(argv) == 2
        err = error_line(capsys)
        assert err["error"] == "config" and key in err["message"]

    @pytest.mark.parametrize("fault, key", [
        ({"grid": 5}, "grid"),
        ({"grid": {}}, "grid"),
        ({"grid": {"n_estimators": ["x"], "max_depth": [2]}}, "n_estimators"),
        ({"grid": {"n_estimators": [2.5], "max_depth": [2]}}, "n_estimators"),
        ({"grid": {"n_estimators": [2], "max_depth": [2], "folds": "x"}}, "folds"),
        ({"data": "x"}, "data"),
        ({"data": {"delimiter": 5}}, "delimiter"),
        ({"data": {"delimiter": "ab"}}, "delimiter"),
        ({"data": {"delim": ";"}}, "delim"),
        ({"out": 5}, "out"),
        ({"lags": 12}, "lags"),
        ({"rated_capacity_mw": float("inf")}, "rated_capacity_mw"),
        ({"resolution_s": 0}, "resolution_s"),
        ({"seed": -1}, "seed"),
        ({"test_fraction": 10**400}, "test_fraction"),
        ({"thresholds_mw": []}, "thresholds_mw"),
        ({"thresholds_mw": [9, 4]}, "thresholds_mw"),
    ], ids=["grid_5", "grid_empty", "grid_string_choice", "grid_fractional_choice", "grid_string_folds",
            "data_string", "delimiter_5", "delimiter_2_chars", "unknown_data_key", "out_5", "unknown_key_lags",
            "capacity_inf", "resolution_0", "seed_negative", "test_fraction_huge_integer",
            "thresholds_empty", "thresholds_decreasing"])
    def test_config_fault_exits_2(self, workspace, capsys, monkeypatch, tmp_path, fault, key):
        monkeypatch.chdir(tmp_path)  # "out" is left to the config
        workspace["config"].write_text(json.dumps({
            "version": 1, "rated_capacity_mw": 20, "hyperparams": {"n_estimators": 1, "max_depth": 1}, **fault,
        }))
        argv = ["train", "--config", str(workspace["config"]), "--data", str(workspace["csv"]), "--horizons", "1"]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config" and key in err["message"]

    def test_default_grid_is_param_grid_default(self, workspace):
        assert main(workspace["argv"]("prepare", "--grid", "default")) == 0
        cfg = json.loads((workspace["out"] / "config.resolved.json").read_text())
        default = ParamGrid()
        assert cfg["grid"] == {"n_estimators": list(default.n_estimators_choices),
                               "max_depth": list(default.max_depth_choices), "folds": default.folds}
