import json

import numpy as np
import pytest

from windramp import generate_series, load_model, write_series
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

    def test_evaluation_identical_across_workers(self, workspace, tmp_path):
        docs = []
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            for stage in ("train", "evaluate"):
                argv = workspace["argv"](stage, "--workers", str(workers), "--grid", "2,3x1,2x2", out_dir=out)
                assert main(argv) == 0
            docs.append((out / "reports" / "evaluation.json").read_bytes())
        assert docs[0] == docs[1]


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
    ], ids=["layout_length", "split_under_leaf", "feature", "n_estimators_0", "n_estimators_float",
            "nan_base_score", "inf_base_score", "nan_learning_rate", "nan_hyperparams_learning_rate",
            "learning_rate_mismatch", "nan_threshold", "inf_leaf_weight", "huge_leaf_weights",
            "num_classes_0", "num_classes_1", "version_1"])
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

    @pytest.mark.parametrize("hyperparams", [{"n_estimators": 2.5}, {"max_depth": 40}],
                             ids=["n_estimators_float", "max_depth_40"])
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
