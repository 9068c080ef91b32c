import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import windramp
from windramp import (HorizonSpec, ParamGrid, ThresholdSet, WindPowerSeries, build_dataset, generate_series,
                      load_model, load_series, stratified_split, write_series)
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


def entry(edit):
    """An edit of the manifest text: ``edit`` applied to horizon 1's entry."""
    def edited(text):
        manifest = json.loads(text)
        edit(manifest["1"])
        return json.dumps(manifest)
    return edited


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
        assert [path.name for path in (out / "reports").iterdir()] == ["distribution.json"]

    def test_train_runs_without_prepare(self, workspace, capsys):
        assert main(workspace["argv"]("train")) == 0
        models = workspace["out"] / "models"
        manifest = json.loads((models / "manifest.json").read_text())
        assert set(manifest) == {"1", "3"}
        for s in (1, 3):
            path = models / f"horizon_{s}.model.json"
            assert load_model(path).n_features == LAGS
            assert set(manifest[str(s)]) == {"model_sha256", "split_sha256"}
            assert manifest[str(s)]["model_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert not list(models.glob("*.split.json"))
        capsys.readouterr()
        assert main(workspace["argv"]("evaluate")) == 0
        reports = workspace["out"] / "reports"
        assert sorted(path.name for path in reports.iterdir()) == ["evaluation.json", "timing.json"]
        doc = json.loads((reports / "evaluation.json").read_text())
        assert [m["model"] for m in doc["models"]] == ["gbrt", "persistence", "majority"]
        timing = json.loads((reports / "timing.json").read_text())
        assert list(timing["seconds_per_example"]) == ["gbrt", "majority", "persistence"]
        # the table is printed from the two documents, not stored
        out = capsys.readouterr().out
        assert "pooled accuracy" in out and f"{doc['models'][0]['mean_accuracy']:.4f}" in out

    @pytest.mark.parametrize("edit, reason", [
        (entry(lambda r: r.update(split_sha256=5)), "changed"),
        (entry(lambda r: r.update(dataset_sha256=r.pop("split_sha256"))), "changed"),
        (entry(lambda r: r.pop("split_sha256")), "changed"),
        (entry(lambda r: r.update(scheme="random")), "changed"),
        (entry(lambda r: r.clear()), "changed"),
        # the entry in the earlier split record's format, which also copied the seed and test_fraction
        (entry(lambda r: (r.pop("model_sha256"), r.update(seed=4, test_fraction=0.2))), "changed"),
        (lambda text: json.dumps([json.loads(text)]), "malformed manifest"),
        (lambda text: text[:-3], "malformed manifest"),
    ], ids=["digest_number", "dataset_digest_key", "missing_key", "extra_key", "empty", "parent_format",
            "not_an_object", "not_json"])
    def test_malformed_split_record_exits_3(self, workspace, capsys, edit, reason):
        """Horizon 1's split record is its manifest entry: any edit of it, or
        of the manifest as a whole, is refused."""
        assert main(workspace["argv"]("train")) == 0
        path = workspace["out"] / "models" / "manifest.json"
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert main(workspace["argv"]("evaluate")) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "data" and reason in err["message"]
        if reason == "changed":
            assert "S=1" in err["message"]

    def test_swapped_model_exits_3(self, workspace, capsys, tmp_path):
        """A model trained on another split, copied over this run's, would
        be scored on rows it trained on; its digest refuses it."""
        other = tmp_path / "other"
        assert main(workspace["argv"]("train")) == 0
        assert main(workspace["argv"]("train", "--seed", "5", out_dir=other)) == 0
        model = workspace["out"] / "models" / "horizon_1.model.json"
        swapped = (other / "models" / "horizon_1.model.json").read_bytes()
        assert swapped != model.read_bytes()
        model.write_bytes(swapped)
        capsys.readouterr()
        assert main(workspace["argv"]("evaluate")) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "data" and "S=1" in err["message"] and "model file" in err["message"]

    @pytest.mark.parametrize("stage", ["prepare", "train"])
    def test_failed_run_leaves_config_and_manifest(self, workspace, capsys, stage):
        """A run that fails after its config resolved leaves the good run's
        config.resolved.json (and train's manifest) byte for byte."""
        out = workspace["out"]
        assert main(workspace["argv"](stage)) == 0
        kept = [out / "config.resolved.json"] + ([out / "models" / "manifest.json"] if stage == "train" else [])
        before = [path.read_bytes() for path in kept]
        if stage == "train":  # fails at the split, after the series is read
            failed = workspace["argv"]("train", "--test-fraction", "0.00001")
        else:  # fails reading the series
            failed = workspace["argv"]("prepare", "--data", str(workspace["csv"].with_name("missing.csv")))
        capsys.readouterr()
        assert main(failed) == 3
        assert error_line(capsys)["error"] == "data"
        assert [path.read_bytes() for path in kept] == before

    def test_horizon_not_in_manifest_exits_3(self, workspace, capsys):
        assert main(workspace["argv"]("train")) == 0  # horizons 1 and 3
        capsys.readouterr()
        assert main(workspace["argv"]("evaluate", "--horizons", "1,6")) == 3
        err = error_line(capsys)
        assert err["error"] == "data" and "S=6" in err["message"] and "manifest.json" in err["message"]

    def test_parent_layout_exits_3(self, workspace, capsys):
        """A run directory in the earlier layout, one split record per
        horizon and no manifest, must be trained again."""
        assert main(workspace["argv"]("train")) == 0
        models = workspace["out"] / "models"
        manifest = json.loads((models / "manifest.json").read_text())
        for s, record in manifest.items():
            (models / f"horizon_{s}.split.json").write_text(json.dumps({"split_sha256": record["split_sha256"]}))
        (models / "manifest.json").unlink()
        capsys.readouterr()
        assert main(workspace["argv"]("evaluate")) == 3
        err = error_line(capsys)
        assert err["error"] == "data" and "run `windramp train`" in err["message"]

    @pytest.mark.parametrize("edit", [
        lambda argv: argv + ["--seed", "5"],
        lambda argv: argv + ["--test-fraction", "0.3"],
        lambda argv: argv[:argv.index("--seed")] + argv[argv.index("--seed") + 2:],
        lambda argv: argv + ["--lags", "11"],
    ], ids=["seed_5", "test_fraction_0.3", "default_seed", "lags_11"])
    def test_evaluate_with_other_split_settings_exits_3(self, workspace, capsys, edit):
        """evaluate splits by its own seed and test_fraction and windows by
        its own lag count. Settings other than train's deal other rows, and
        scoring them would score training rows, so the recorded digest
        refuses them."""
        assert main(workspace["argv"]("train")) == 0  # --seed 4, default test_fraction 0.2
        capsys.readouterr()
        assert main(edit(workspace["argv"]("evaluate"))) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "data" and "S=1" in err["message"] and "changed" in err["message"]

    @pytest.mark.parametrize("fraction, empty", [("0.0003", "test"), ("0.9999", "train")])
    def test_split_with_an_empty_part_exits_3(self, workspace, capsys, fraction, empty):
        """A fraction that deals no row to one part is refused before any fit."""
        write_series(generate_series(1500, rated_capacity_mw=20.0, seed=3), workspace["csv"])
        assert main(workspace["argv"]("train", "--horizons", "1", "--test-fraction", fraction)) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "data"
        for fragment in ("S=1", fraction, "1488 rows", f"{empty} part"):
            assert fragment in err["message"]
        assert not list((workspace["out"] / "models").iterdir())

    def test_predictor_without_test_rows_exits_3(self, workspace, capsys):
        """300 segments of 12 points, 20 steps apart: with L=2 and S=6 no
        anchor has a point 6 steps back in its own segment, so persistence
        predicts no test row, and the refusal names the horizon and it."""
        wps = generate_series(3600, rated_capacity_mw=20.0, seed=3)
        ts = (np.arange(3600) // 12 * 20 + np.arange(3600) % 12 + 1) * 600
        write_series(WindPowerSeries(ts, wps.powers, 600, 20.0), workspace["csv"])
        assert main(workspace["argv"]("train", "--lags", "2", "--horizons", "6")) == 0
        capsys.readouterr()
        assert main(workspace["argv"]("evaluate", "--lags", "2", "--horizons", "6")) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "data" and "S=6" in err["message"] and "persistence" in err["message"]

    @pytest.mark.parametrize("stage, blocked", [
        ("prepare", None), ("train", "models/horizon_1.model.json"), ("evaluate", "reports/evaluation.json"),
    ], ids=["out_is_a_file", "model_path_is_a_directory", "evaluation_report_is_a_directory"])
    def test_unusable_output_path_exits_2(self, workspace, capsys, stage, blocked):
        """An output path that cannot be written is a config error naming
        it, with one JSON line and no traceback."""
        out = workspace["out"]
        if stage == "evaluate":
            assert main(workspace["argv"]("train")) == 0
        if blocked:
            (out / blocked).mkdir(parents=True)
        else:
            out.write_text("")
        capsys.readouterr()
        assert main(workspace["argv"](stage)) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "config" and str(out / (blocked or "")) in err["message"]

    def test_evaluate_without_model_exits_3(self, workspace, capsys):
        assert main(workspace["argv"]("evaluate")) == 3
        err = error_line(capsys)
        assert err["error"] == "data" and "missing" in err["message"]

    @staticmethod
    def _edit_power(wps, i):
        """The series with power i moved by 0.001 MW, within [0, capacity]."""
        powers = wps.powers.copy()
        powers[i] += 0.001 if powers[i] + 0.001 <= wps.rated_capacity_mw else -0.001
        return WindPowerSeries(wps.timestamps, powers, wps.resolution_s, wps.rated_capacity_mw)

    def test_evaluate_after_series_changed_exits_3(self, workspace, capsys):
        """Any change to the powers is refused: another series, one power
        inside a test row's lag window, or the last power, which is only
        ever a target and keeps its class here."""
        assert main(workspace["argv"]("train")) == 0
        wps, _ = load_series(workspace["csv"], resolution_s=600, rated_capacity_mw=20.0)
        ds = build_dataset(wps, HorizonSpec(1, LAGS), ThresholdSet((10.0,)))
        in_test_window = int(stratified_split(ds, 0.2, 4)[1].starts[0]) + LAGS // 2
        for changed in (generate_series(2000, rated_capacity_mw=20.0, seed=5), self._edit_power(wps, in_test_window),
                        self._edit_power(wps, len(wps) - 1)):
            write_series(changed, workspace["csv"])
            capsys.readouterr()
            assert main(workspace["argv"]("evaluate")) == 3
            captured = capsys.readouterr()
            assert len(captured.err.splitlines()) == 1 and captured.out == ""
            err = json.loads(captured.err)
            assert err["error"] == "data" and "differs from the manifest" in err["message"]

    def test_evaluate_after_time_shift_matches(self, workspace):
        """A series shifted by a whole number of steps keeps its segments and
        powers, so it deals the same rows and scores them the same."""
        for stage in ("train", "evaluate"):
            assert main(workspace["argv"](stage)) == 0
        report = workspace["out"] / "reports" / "evaluation.json"
        before = report.read_bytes()
        wps, _ = load_series(workspace["csv"], resolution_s=600, rated_capacity_mw=20.0)
        write_series(WindPowerSeries(wps.timestamps + 6000, wps.powers, 600, 20.0), workspace["csv"])
        assert main(workspace["argv"]("evaluate")) == 0
        assert report.read_bytes() == before

    def test_single_instance_class_keeps_one_stderr_line(self, tmp_path):
        """A class with one row goes to train without a word on stderr: a
        refused run there prints its one JSON line and nothing else. Run as
        a process, so stderr is the program's own."""
        powers = 5 + np.random.default_rng(0).uniform(0, 1, 300)
        powers[150:] += 11  # the one S=1 up-ramp past 10 MW
        write_series(WindPowerSeries((np.arange(300) + 1) * 600, powers, 600, 20.0), tmp_path / "series.csv")
        src = str(Path(windramp.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "windramp.cli", "train", "--data", "series.csv",
                              "--capacity-mw", "20", "--lags", "4", "--horizons", "1", "--test-fraction", "0.001"],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 3
        lines = run.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "data" and "test part of 296 rows empty" in err["message"]

    @pytest.mark.parametrize("edit, code, kind, reason", [
        (lambda ws: ws["csv"].unlink(), 3, "data", "cannot read series file"),
        (lambda ws: (ws["csv"].unlink(), ws["csv"].mkdir()), 3, "data", "cannot read series file"),
        (lambda ws: ws["csv"].write_bytes(b"timestamp,power_mw\n600,\xff\n"), 3, "data", "cannot read series file"),
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\n600," + "1" * 200_000 + "\n"), 3, "data",
         "cannot read series file"),
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\n100000000000000000000,5\n"), 3, "data", "int64"),
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\n1e20,5\n"), 3, "data", "int64"),
        # the stride between these two would wrap around int64
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\n-9000000000000000000,1.0\n9000000000000000000,2.0\n"),
         3, "data", "strictly positive, got -9000000000000000000"),
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\nnan,5\n"), 3, "data", "line 2: unparseable timestamp"),
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\n600,1.0\ninf,5\n"), 3, "data",
         "line 3: unparseable timestamp"),
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\n600,1_0\n1_200,3\n"), 3, "data",
         "line 2: '_' or a non-ASCII character"),
        (lambda ws: ws["csv"].write_text("timestamp,power_mw\n600,1\n1200,٣\n", encoding="utf-8"), 3, "data",
         "line 3: '_' or a non-ASCII character"),
        (lambda ws: ws["config"].write_bytes(b'{"version": 1, "out": "\xff"}'), 2, "config", "cannot read config file"),
        (lambda ws: ws["config"].write_text('{"grid": ' + "[" * 100_000 + "]" * 100_000 + "}"), 2, "config",
         "not valid JSON"),
    ], ids=["missing_series", "directory_series", "non_utf8_series", "oversized_field", "timestamp_beyond_int64",
            "timestamp_1e20", "timestamps_whose_stride_wraps", "timestamp_nan", "timestamp_inf", "underscore_in_numbers",
            "arabic_indic_power", "non_utf8_config", "deeply_nested_config"])
    def test_unreadable_input_exits_with_its_code(self, workspace, capsys, edit, code, kind, reason):
        edit(workspace)
        assert main(workspace["argv"]("train")) == code
        err = error_line(capsys)
        assert err["error"] == kind and reason in err["message"]

    def test_evaluation_identical_across_workers(self, workspace, tmp_path):
        """Every model, the manifest, every grid report and the evaluation
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
        assert len(outputs[0]) == 1 + 3 + 4
        assert outputs[0] == outputs[1]

    def test_reports_pinned(self, workspace):
        """prepare, a grid train and evaluate write these exact report bytes.
        The digests were recorded before the report layer was rewritten;
        predictions go through numpy's exp/log, so they hold for one numpy
        build and CPU."""
        for stage, extra in (("prepare", ()), ("train", ("--grid", "1,3x2x2")), ("evaluate", ())):
            assert main(workspace["argv"](stage, *extra)) == 0
        reports = workspace["out"] / "reports"
        digests = {name: hashlib.sha256((reports / name).read_bytes()).hexdigest() for name in (
            "distribution.json", "grid_horizon_1.json", "grid_horizon_3.json", "evaluation.json")}
        assert digests == {
            "distribution.json": "1ee6197e77fb09427f2503647e9592ce927a5cd6abe643b46d94fa2c92679298",
            "grid_horizon_1.json": "0c87a7a6a5e2e190436264169918ea008c019836587ac8068ef1c2d0f762dfe4",
            "grid_horizon_3.json": "58e874a51f9c15b6b27cdcf5c92d7857c9851e6429d2c8a5d248fc66cbb2c6cb",
            "evaluation.json": "7d7218f5f9215cb8ec51a7f2b695611986584420563ec7855b685cf33c6116bc",
        }

    def test_split_digests_pinned(self, workspace):
        """Each horizon's ``split_sha256``: the bytes of the series' powers,
        then of the train part's and the test part's window starts and
        targets. The split deals with ``default_rng`` and nothing is
        computed in floating point, so the digests hold on any CPU."""
        assert main(workspace["argv"]("train")) == 0
        manifest = json.loads((workspace["out"] / "models" / "manifest.json").read_text())
        assert {s: entry["split_sha256"] for s, entry in manifest.items()} == {
            "1": "1163ecfc08e84cf5409c8e7753657429872aca38936c950d9867ed23d61895d0",
            "3": "4ebc1a37ef6084501b28a5c65f08c1b84c350b5540f89690d686e3af87de326a",
        }

    def test_data_keys_read_other_columns(self, workspace, tmp_path):
        """The config's data keys and their flags reach load_series: the
        series written as ``t;mw`` gives the default format's report."""
        assert main(workspace["argv"]("prepare")) == 0
        expected = (workspace["out"] / "reports" / "distribution.json").read_bytes()
        columns = {"timestamp_column": "t", "power_column": "mw", "delimiter": ";"}
        wps, _ = load_series(workspace["csv"], resolution_s=600, rated_capacity_mw=20.0)
        write_series(wps, workspace["csv"], **columns)
        config = tmp_path / "columns.json"
        config.write_text(json.dumps({"version": 1, "data": columns}))
        from_file = workspace["argv"]("prepare", "--config", str(config), out_dir=tmp_path / "from_file")
        from_flags = workspace["argv"]("prepare", "--timestamp-column", "t", "--power-column", "mw",
                                       "--delimiter", ";", out_dir=tmp_path / "from_flags")
        for argv, out in ((from_file, "from_file"), (from_flags, "from_flags")):
            assert main(argv) == 0
            assert (tmp_path / out / "reports" / "distribution.json").read_bytes() == expected

    def test_no_grid_train_identical_across_workers(self, workspace, tmp_path):
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            assert main(workspace["argv"]("train", "--workers", str(workers), "--horizons", "1,3,6", out_dir=out)) == 0
            assert not list((out / "reports").glob("grid_horizon_*.json"))
            outputs.append({path.name: path.read_bytes() for path in sorted((out / "models").glob("*.json"))})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]


class TestPredict:
    @pytest.fixture
    def model_path(self, workspace):
        assert main(workspace["argv"]("train")) == 0
        return workspace["out"] / "models" / "horizon_1.model.json"

    def test_output_matches_model(self, model_path, tmp_path, capsys, monkeypatch):
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
        # a UTF-8 byte-order mark, as spreadsheet CSV exports write it, is not part of the first row
        src.write_bytes(b"\xef\xbb\xbf" + src.read_text().split("\n", 1)[1].encode())
        assert main(["predict", str(model_path), str(src)]) == 0
        assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == lines
        # stdin ("-") is read like the file
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(src.read_bytes())))
        assert main(["predict", str(model_path), "-"]) == 0
        assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == lines

    def test_mistyped_first_row_is_not_a_header(self, model_path, tmp_path, capsys):
        # one cell that does not parse does not make line 1 a header: dropping
        # it would shift every prediction by one row
        src = tmp_path / "rows.csv"
        src.write_text("\n".join(["1O" + ",10" * (LAGS - 1)] + [",".join(["10"] * LAGS)] * 2) + "\n")
        capsys.readouterr()
        assert main(["predict", str(model_path), str(src)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "data" and err["message"].startswith("line 1:")

    def test_nan_row_exits_3(self, model_path, tmp_path, capsys):
        src = tmp_path / "rows.csv"
        src.write_text(",".join(["nan"] * LAGS) + "\n")
        assert main(["predict", str(model_path), str(src)]) == 3
        err = error_line(capsys)
        assert err["error"] == "data" and err["message"].startswith("line 1:")
        # a bad cell is named by its line of the file, as every other fault is, not by its row of the matrix
        header = ",".join(f"lag_{LAGS - 1 - j}" for j in range(LAGS))
        for cell in ("nan", "inf", "-inf", "1e400"):
            src.write_text("\n".join([header, ",".join(["1.0"] * LAGS), ",".join(["1.0"] * (LAGS - 1) + [cell])]))
            assert main(["predict", str(model_path), str(src)]) == 3
            err = error_line(capsys)
            assert err["error"] == "data" and err["message"].startswith(f"line 3: {cell!r} is not a finite number")

    @pytest.mark.parametrize("text, message", [
        ("1,2,3\n", f"line 1: expected {LAGS} values per row, got 3"),
        ("\n\n\n", "no feature rows in input"),
        (",".join(f"lag_{j}" for j in range(LAGS)) + "\n", "no feature rows in input"),
    ], ids=["row_of_3_values", "blank_lines_only", "header_only"])
    def test_no_usable_rows_exits_3(self, model_path, tmp_path, capsys, text, message):
        src = tmp_path / "rows.csv"
        src.write_text(text)
        capsys.readouterr()
        assert main(["predict", str(model_path), str(src)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err) == {"error": "data", "message": message}

    @pytest.mark.parametrize("cell", ["1_0", "\u0663"], ids=["underscore", "arabic_indic"])
    def test_number_form_no_export_writes_exits_3(self, model_path, tmp_path, capsys, cell):
        # float() reads 1_0 as 10 and an Arabic-Indic 3 as 3; the series reader refuses both too
        src = tmp_path / "rows.csv"
        src.write_text("\n".join([",".join(["2"] * LAGS), ",".join([cell] + ["2"] * (LAGS - 1))]) + "\n",
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", str(model_path), str(src)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "data" and err["message"] == f"line 2: '_' or a non-ASCII character in {cell!r}"

    @pytest.mark.parametrize("case, code, kind", [
        ("non_utf8_model", 4, "training"), ("deeply_nested_model", 4, "training"), ("non_utf8_rows", 3, "data"),
        ("missing_rows", 3, "data"), ("non_utf8_stdin", 3, "data"),
    ])
    def test_unreadable_file_exits_with_its_code(self, model_path, tmp_path, capsys, monkeypatch, case, code, kind):
        src = tmp_path / "rows.csv"
        if case == "non_utf8_model":
            model_path.write_bytes(b"\xff" + model_path.read_bytes())
        if case == "deeply_nested_model":
            model_path.write_text("[" * 100_000 + "]" * 100_000)
        if case != "missing_rows":
            src.write_bytes(",".join(["1.0"] * LAGS).encode() + (b"\n" if case.endswith("model") else b"\xff\n"))
        if case == "non_utf8_stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(src.read_bytes())))
            src = "-"
        capsys.readouterr()
        assert main(["predict", str(model_path), str(src)]) == code
        assert error_line(capsys)["error"] == kind

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [row.pop() for key in ("feature", "threshold") for row in d[key]], "layout"),
        (lambda d: next(row for row in d["feature"] if max(row[1:]) >= 0).__setitem__(0, -1),
         "below a slot that does not split"),
        (lambda d: d["feature"][0].__setitem__(0, 99), "feature"),
        (lambda d: d["base_score"].__setitem__(2, float("nan")), "non-finite"),
        (lambda d: d["base_score"].__setitem__(0, float("inf")), "non-finite"),
        (lambda d: d["threshold"][0].__setitem__(0, float("nan")), "non-finite"),
        (lambda d: d["leaf"][1].__setitem__(0, float("-inf")), "non-finite"),
        # three rounds of 1e308 per class add up past the largest double
        (lambda d: d.update(leaf=[[1e308] * len(row) for row in d["leaf"]]), "overflow"),
        (lambda d: d.update(base_score=[]), "base_score"),
        (lambda d: d.update(base_score=[0.0]), "base_score"),
        (lambda d: d.update(version=1), "version 1"),
        (lambda d: d.update(version=2), "version 2 (expected 3); retrain the model"),
        # a format-2 document whose version was bumped: its leaves are not shrunken
        (lambda d: d.update(learning_rate=0.3), "exactly the keys"),
        (lambda d: d.pop("leaf"), "exactly the keys"),
        # 12 trees do not split into rounds of 5 classes
        (lambda d: d.update(base_score=[0.0] * 5), "multiple of 5 trees"),
        (lambda d: d.update(n_features=LAGS + 0.5), "n_features"),
        (lambda d: d.update(n_features=True), "n_features"),
        (lambda d: d.update(n_features="12"), "n_features"),
    ], ids=["layout_length", "split_under_leaf", "feature", "nan_base_score", "inf_base_score",
            "nan_threshold", "inf_leaf_weight", "huge_leaf_weights", "num_classes_0", "num_classes_1",
            "version_1", "version_2", "format_2_field", "missing_key", "fractional_counts", "n_features_float", "n_features_bool",
            "n_features_string"])
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

    def test_config_with_byte_order_mark(self, workspace):
        config, out = workspace["config"], workspace["out"]
        assert main(workspace["argv"]("prepare", out_dir=out / "plain")) == 0
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert main(workspace["argv"]("prepare", out_dir=out / "bom")) == 0
        plain, bom = ((out / run / "reports" / "distribution.json").read_bytes() for run in ("plain", "bom"))
        assert bom == plain

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
        ({"grid": {"n_estimators": [2, 0], "max_depth": [2]}}, "grid.n_estimators"),
        ({"grid": {"n_estimators": [2], "max_depth": [0]}}, "grid.max_depth"),
        ({"grid": {"n_estimators": [2], "max_depth": [13]}}, "grid.max_depth"),
        ({"data": "x"}, "data"),
        ({"data": {"delimiter": 5}}, "delimiter"),
        ({"data": {"delimiter": "ab"}}, "delimiter"),
        ({"data": {"delim": ";"}}, "delim"),
        ({"data": {"site_id": "x"}}, "site_id"),
        ({"out": 5}, "out"),
        ({"lags": 12}, "lags"),
        ({"rated_capacity_mw": float("inf")}, "rated_capacity_mw"),
        ({"resolution_s": 0}, "resolution_s"),
        ({"seed": -1}, "seed"),
        ({"test_fraction": 10**400}, "test_fraction"),
        ({"thresholds_mw": []}, "thresholds_mw"),
        ({"thresholds_mw": [9, 4]}, "thresholds_mw"),
        ({"version": 2}, "unsupported config version 2"),
    ], ids=["grid_5", "grid_empty", "grid_string_choice", "grid_fractional_choice", "grid_string_folds",
            "grid_zero_estimators", "grid_depth_0", "grid_depth_13",
            "data_string", "delimiter_5", "delimiter_2_chars", "unknown_data_key", "data_site_id", "out_5", "unknown_key_lags",
            "capacity_inf", "resolution_0", "seed_negative", "test_fraction_huge_integer",
            "thresholds_empty", "thresholds_decreasing", "version_2"])
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

    @pytest.mark.parametrize("delimiter", ["\n", "\r"], ids=["lf", "cr"])
    def test_line_break_delimiter_exits_2(self, workspace, capsys, delimiter):
        """write_series would write such a file, but no row of it splits into cells."""
        assert main(workspace["argv"]("prepare", "--delimiter", delimiter)) == 2
        err = error_line(capsys)
        assert err["error"] == "config" and "other than a line break" in err["message"]

    @pytest.mark.parametrize("flag, key, text", [
        ("--resolution-s", "resolution_s", "abc"), ("--resolution-s", "resolution_s", "1.5"),
        ("--capacity-mw", "rated_capacity_mw", "abc"), ("--threshold-fraction", "threshold_fraction", "abc"),
        ("--lags", "lag_count", "abc"), ("--lags", "lag_count", "1.5"), ("--test-fraction", "test_fraction", "abc"),
        ("--seed", "seed", "abc"), ("--seed", "seed", "1.5"), ("--workers", "workers", "abc"),
        ("--workers", "workers", "1.5"), ("--grid", "grid", "1x1x2x3"),
    ])
    def test_unreadable_flag_text_exits_2(self, workspace, capsys, flag, key, text):
        assert main(workspace["argv"]("prepare", flag, text)) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "config" and key in err["message"]

    @pytest.mark.parametrize("argv, reason", [
        (["prepare", "--data", "x", "--seed"], "argument --seed: expected one argument"),
        (["prepare", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: command"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ], ids=["flag_without_value", "unknown_flag", "no_subcommand", "unknown_subcommand"])
    def test_bad_command_line_exits_2(self, capsys, argv, reason):
        """argparse's own refusals end in one JSON line, not a usage block."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "config" and reason in err["message"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--help"])
        assert exc.value.code == 0 and "--timestamp-column" in capsys.readouterr().out

    def test_default_grid_is_param_grid_default(self, workspace):
        assert main(workspace["argv"]("prepare", "--grid", "default")) == 0
        cfg = json.loads((workspace["out"] / "config.resolved.json").read_text())
        default = ParamGrid()
        assert cfg["grid"] == {"n_estimators": list(default.n_estimators_choices),
                               "max_depth": list(default.max_depth_choices), "folds": default.folds}

    @pytest.mark.parametrize("case", ["workspace", "fit_year", "default_grid"])
    def test_resolved_config_pinned(self, workspace, tmp_path, case):
        """config.resolved.json holds these exact bytes, with the output and
        series paths replaced. The digests were recorded before the settings
        were declared in one table."""
        argv = workspace["argv"]("prepare")
        if case == "fit_year":  # the argv of perfbench's fit-year workload
            config = tmp_path / "fit_year.json"
            config.write_text(json.dumps({"version": 1, "hyperparams": {"n_estimators": 2, "max_depth": 4}}))
            argv = ["prepare", "--config", str(config), "--data", str(workspace["csv"]), "--capacity-mw", "20.0",
                    "--threshold-fraction", "0.5", "--lags", "36", "--horizons", "6", "--seed", "1",
                    "--workers", "1", "--out", str(workspace["out"])]
        if case == "default_grid":
            argv += ["--grid", "default"]
        assert main(argv) == 0
        text = (workspace["out"] / "config.resolved.json").read_text()
        text = text.replace(json.dumps(str(workspace["out"])), '"OUT"').replace(str(workspace["csv"]), "SERIES")
        assert hashlib.sha256(text.encode()).hexdigest() == {
            "workspace": "08a247222d24acfce1b5708dcfb818ecc87414e416385368e20f69915ff684c9",
            "fit_year": "f50b2a9816c18224a9ec46eb460ab3b8bbd40e6485c7a788b7a0ebca2d2aea88",
            "default_grid": "b79840567f7e25ba1bb0648f64efe4e67f561718701dadb3749a82a65abc9206",
        }[case]
