"""The benchmark's workloads: inputs made from a seed, one timed pass each.

fit-year and grid-small run the CLI stages prepare -> train -> evaluate on
a generated series, then time batch predict_class with the model of the
first horizon they list. serve-rows serves a model trained during set-up:
repeated model loads, single-row predict_proba calls in a closed loop with
one caller, and batch predict_class.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

CAPACITY_MW = 20.0
THRESHOLD_FRACTION = 0.5
LAGS = 36
SINGLE_ROW_CALLS = 1000
LOAD_EVERY = 50  # single-row calls per model load
# serve-rows serves one model in every run, trained on the series of this
# seed; --seed picks its request rows, from the series of seed + offset.
# grid-small's batch calls use a year of such rows too: over its own 30 days
# (4k rows) the time per row moved by 1.4x from run to run on one host.
SERVED_MODEL_SEED = 0
REQUEST_SEED_OFFSET = 7919

SIZES = {
    "fit-year": {
        "full": {"points": 52560, "horizons": "6", "n_estimators": 2, "max_depth": 4, "workers": 1,
                 "batch_calls": 4, "setup_repeats": 5},
        "toy": {"points": 1500, "horizons": "1,6", "n_estimators": 2, "max_depth": 2, "workers": 1,
                "batch_calls": 1, "setup_repeats": 2},
    },
    "grid-small": {
        "full": {"points": 4320, "horizons": "1,3,6", "grid": "1,4x4x2", "workers": 2,
                 "batch_points": 52560, "batch_calls": 4, "setup_repeats": 8},
        "toy": {"points": 1500, "horizons": "1,6", "grid": "1,2x1,2x2", "workers": 2,
                "batch_points": 1500, "batch_calls": 1, "setup_repeats": 2},
    },
    "serve-rows": {
        "full": {"train_points": 4320, "n_estimators": 10, "max_depth": 4, "request_points": 52560,
                 "batch_calls": 1, "setup_repeats": 3},
        "toy": {"train_points": 1440, "n_estimators": 3, "max_depth": 4, "request_points": 1500,
                "batch_calls": 1, "setup_repeats": 2},
    },
}


class PassAborted(Exception):
    """An operation failed; the run stops measuring and reports it."""


class Ledger:
    """Counts attempted and failed operations and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except PassAborted:
            raise
        except Exception as exc:  # any raise from the program is a failed operation
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            raise PassAborted(what) from exc

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        self.messages.append(what)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def model_counts(wr, path: Path) -> tuple[int, int]:
    """(nodes, leaves) over every tree of a saved model."""
    model = wr.gbrt.load_model(path)
    trees = [tree for rnd in model.trees for tree in rnd]
    return sum(t.n_nodes for t in trees), sum(t.n_leaves for t in trees)


def check_outputs(ledger: Ledger, model, rows: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Batch classes lie in 1..num_classes and are the argmax of probability
    rows that sum to 1; returns those probability rows (not timed)."""
    proba = model.predict_proba(rows)
    k = model.num_classes
    ledger.check(bool(np.all(np.abs(proba.sum(axis=1) - 1.0) <= 1e-9)), "probability rows do not sum to 1")
    ledger.check(classes.shape == (rows.shape[0],) and bool(np.all((classes >= 1) & (classes <= k))),
                 "predicted class outside 1..num_classes")
    ledger.check(np.array_equal(classes, np.argmax(proba, axis=1) + 1), "predict_class disagrees with predict_proba")
    return proba


def timed_batch(ledger: Ledger, model, rows: np.ndarray, calls: int) -> tuple[np.ndarray, float]:
    """``calls`` batch predict_class calls over ``rows``: (classes, median us per row)."""
    times = []
    for _ in range(calls):
        with ledger.op("predict_class"):
            t = time.perf_counter()
            classes = model.predict_class(rows)
            times.append(time.perf_counter() - t)
    return classes, statistics.median(times) / rows.shape[0] * 1e6


class FitWorkload:
    """prepare -> train -> evaluate through ``windramp.cli.main``, then one
    load of the first horizon's model and batch predict_class calls over
    every lag window of the series, or of a ``batch_points`` series."""

    def __init__(self, wr, name: str, size: str, seed: int, work: Path):
        self.wr, self.seed = wr, seed
        self.params = SIZES[name][size]
        self.csv = work / "series.csv"
        self.config = work / "config.json"
        self.out = work / "out"
        first = self.params["horizons"].split(",")[0]
        self.model_path = self.out / "models" / f"horizon_{first}.model.json"

    def inputs(self) -> dict:
        seeds = {"series_seed": self.seed, "split_seed": self.seed}
        if "batch_points" in self.params:
            seeds["batch_series_seed"] = self.seed + REQUEST_SEED_OFFSET
        return {**seeds, **self.params}

    def setup(self) -> dict:
        p = self.params
        wps = self.wr.synthetic.generate_series(p["points"], rated_capacity_mw=CAPACITY_MW, seed=self.seed)
        self.wr.series.write_series(wps, self.csv)
        hyper = {k: p[k] for k in ("n_estimators", "max_depth") if k in p}
        self.config.write_text(json.dumps({"version": 1, "hyperparams": hyper}), encoding="utf-8")
        if "batch_points" in p:
            wps = self.wr.synthetic.generate_series(p["batch_points"], rated_capacity_mw=CAPACITY_MW,
                                                    seed=self.seed + REQUEST_SEED_OFFSET)
        self.rows = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(np.asarray(wps.powers), LAGS))
        return {}

    def argv(self, stage: str) -> list[str]:
        p = self.params
        argv = [
            stage, "--config", str(self.config), "--data", str(self.csv),
            "--capacity-mw", str(CAPACITY_MW), "--threshold-fraction", str(THRESHOLD_FRACTION),
            "--lags", str(LAGS), "--horizons", p["horizons"], "--seed", str(self.seed),
            "--workers", str(p["workers"]), "--out", str(self.out),
        ]
        if "grid" in p:
            argv += ["--grid", p["grid"]]
        return argv

    def run_pass(self, ledger: Ledger, span) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        res: dict = {}
        t_wall, t_cpu = time.perf_counter(), cpu_seconds()
        for stage in ("prepare", "train", "evaluate"):
            err = io.StringIO()
            with ledger.op(f"cli {stage}"), span(f"cli.{stage}"):
                t = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = self.wr.cli.main(self.argv(stage))
                res[f"{stage}_s"] = time.perf_counter() - t
            if not ledger.check(code == 0, f"cli {stage} exited {code}: {err.getvalue().strip()}"):
                raise PassAborted(stage)
        with ledger.op("load_model"):
            self.model = self.wr.gbrt.load_model(self.model_path)
        self.classes, res["predict_batch_us_per_row"] = timed_batch(
            ledger, self.model, self.rows, self.params["batch_calls"])
        res["wall_s"] = time.perf_counter() - t_wall
        res["cpu_s"] = cpu_seconds() - t_cpu
        return res

    def finish_pass(self, res: dict, ledger: Ledger) -> dict:
        """Checks and deterministic outputs of one pass (not timed)."""
        check_outputs(ledger, self.model, self.rows, self.classes)
        reports = self.out / "reports"
        models = sorted((self.out / "models").glob("*.model.json"))
        doc = json.loads((reports / "evaluation.json").read_text(encoding="utf-8"))
        gbrt = next((m for m in doc["models"] if m["model"] == "gbrt"), None)
        ledger.check(gbrt is not None, "evaluation.json has no gbrt entry")
        for key, metric in (("mean_rare_f1", "rare_f1"), ("mean_overall_f1", "overall_f1"),
                            ("mean_accuracy", "accuracy")):
            value = float(gbrt[key]) if gbrt else float("nan")
            ledger.check(0.0 <= value <= 1.0, f"gbrt {key}={value} outside [0, 1]")
            res[metric] = value
        res["hashes"] = {"reports/evaluation.json": sha256_file(reports / "evaluation.json")}
        res["hashes"].update({f"models/{m.name}": sha256_file(m) for m in models})
        nodes_leaves = [model_counts(self.wr, m) for m in models]
        res["layer"] = {
            "gbrt.tree_nodes": sum(n for n, _ in nodes_leaves),
            "gbrt.tree_leaves": sum(lv for _, lv in nodes_leaves),
            "gbrt.model_bytes": sum(m.stat().st_size for m in models),
            "labeling.dataset_bytes": dir_bytes(self.out / "datasets"),
        }
        return res


class ServeWorkload:
    """Serves a model trained during set-up; no tree growing.

    A pass makes SINGLE_ROW_CALLS single-row predict_proba calls in a closed
    loop with one caller, reloading the model before every LOAD_EVERY-th
    call so that loads and calls cover the same stretches of time, then
    batch predict_class calls over every request row.
    """

    def __init__(self, wr, name: str, size: str, seed: int, work: Path):
        self.wr, self.seed = wr, seed
        self.params = SIZES[name][size]
        self.model_path = work / "served.model.json"

    def inputs(self) -> dict:
        return {"train_series_seed": SERVED_MODEL_SEED, "request_series_seed": self.seed + REQUEST_SEED_OFFSET,
                **self.params}

    def setup(self) -> dict:
        wr, p = self.wr, self.params
        thresholds = wr.labeling.ThresholdSet.from_fraction(THRESHOLD_FRACTION, CAPACITY_MW)
        horizon = wr.labeling.HorizonSpec(steps_ahead=1, lag_count=LAGS)
        train_ds = wr.labeling.build_dataset(
            wr.synthetic.generate_series(p["train_points"], rated_capacity_mw=CAPACITY_MW, seed=SERVED_MODEL_SEED),
            horizon, thresholds)
        hyper = wr.gbrt.HyperParams(n_estimators=p["n_estimators"], max_depth=p["max_depth"])
        t = time.perf_counter()
        model = wr.gbrt.train(train_ds, hyper)
        train_s = time.perf_counter() - t
        wr.gbrt.save_model(model, self.model_path)
        requests = wr.labeling.build_dataset(
            wr.synthetic.generate_series(p["request_points"], rated_capacity_mw=CAPACITY_MW,
                                         seed=self.seed + REQUEST_SEED_OFFSET),
            horizon, thresholds)
        self.rows, self.targets = requests.features, requests.targets
        self.rare = thresholds.rare_class_ids
        self.sample = np.random.default_rng(self.seed).integers(0, self.rows.shape[0], SINGLE_ROW_CALLS)
        return {"train_s": train_s, "model_sha256": sha256_file(self.model_path)}

    def run_pass(self, ledger: Ledger, span) -> dict:
        rows, sample = self.rows, self.sample
        self.single = None
        load_s, row_s = [], []
        t_wall, t_cpu = time.perf_counter(), cpu_seconds()
        for k, i in enumerate(sample):
            if k % LOAD_EVERY == 0:
                with ledger.op("load_model"):
                    t = time.perf_counter()
                    self.model = self.wr.gbrt.load_model(self.model_path)
                    load_s.append(time.perf_counter() - t)
                if self.single is None:
                    self.single = np.empty((sample.size, self.model.num_classes))
            with ledger.op("predict_proba"):
                t = time.perf_counter()
                p = self.model.predict_proba(rows[i:i + 1])
                row_s.append(time.perf_counter() - t)
            self.single[k] = p[0]
        self.classes, batch_us = timed_batch(ledger, self.model, rows, self.params["batch_calls"])
        return {
            "load_s": load_s,
            "row_s": row_s,
            "predict_batch_us_per_row": batch_us,
            "wall_s": time.perf_counter() - t_wall,
            "cpu_s": cpu_seconds() - t_cpu,
        }

    def finish_pass(self, res: dict, ledger: Ledger) -> dict:
        proba = check_outputs(ledger, self.model, self.rows, self.classes)
        ledger.check(np.array_equal(self.single, proba[self.sample]),
                     "single-row predict_proba differs from batch rows")
        ev = self.wr.evaluation
        report = ev.metrics(ev.confusion(self.targets, self.classes, self.model.num_classes), self.rare)
        res.update(rare_f1=report.rare_f1, overall_f1=report.overall_f1, accuracy=report.accuracy)
        res["hashes"] = {"served.model.json": sha256_file(self.model_path)}
        nodes, leaves = model_counts(self.wr, self.model_path)
        res["layer"] = {
            "gbrt.tree_nodes": nodes,
            "gbrt.tree_leaves": leaves,
            "gbrt.model_bytes": self.model_path.stat().st_size,
            "labeling.dataset_bytes": 0,
        }
        return res


WORKLOADS = {"fit-year": FitWorkload, "grid-small": FitWorkload, "serve-rows": ServeWorkload}
