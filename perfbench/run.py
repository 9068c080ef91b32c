"""windramp benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload fit-year --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed``, sets up a fixed number of
times (the median is ``setup_s``), then repeats timed passes until the
next one would take the passes' total past ``--seconds`` (at least one
pass). With ``--trace 0`` the last stdout line is a JSON object holding
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics read from the traced
passes' spans. Lines before it give the measurement conditions and every
metric as a table.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from spans import Tracer, percentile_ms, summarize
from workloads import WORKLOADS, Ledger, PassAborted

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "predict_batch_us_per_row": "us",
    "rare_f1": "fraction",
    "overall_f1": "fraction",
    "accuracy": "fraction",
}

PER_LAYER = {
    "gbrt.grow_tree.s": "s",
    "gbrt.grow_tree.calls": "count",
    "gbrt.grow_tree.p50_ms": "ms",
    "gbrt.grow_tree.p90_ms": "ms",
    "gbrt.train.s": "s",
    "gbrt.train.self_s": "s",
    "gbrt.train.calls": "count",
    "gbrt.tree_nodes": "count",
    "gbrt.tree_leaves": "count",
    "gbrt.predict_class.s": "s",
    "gbrt.predict_class.rows": "count",
    "gbrt.predict_proba.s": "s",
    "gbrt.predict_proba.calls": "count",
    "gbrt.load_model.s": "s",
    "gbrt.load_model.calls": "count",
    "gbrt.save_model.s": "s",
    "gbrt.model_bytes": "bytes",
    "labeling.save_dataset.s": "s",
    "labeling.load_dataset.s": "s",
    "labeling.dataset_bytes": "bytes",
    "labeling.build_dataset.s": "s",
    "series.load_series.s": "s",
    "evaluation.grid_search.s": "s",
    "evaluation.grid_search.fits": "count",
    "evaluation.stratified_split.s": "s",
    "evaluation.metrics.s": "s",
    "baselines.persistence_predict.s": "s",
    "baselines.majority_predict.s": "s",
    "cli.prepare.s": "s",
    "cli.prepare.self_s": "s",
    "cli.train.s": "s",
    "cli.train.self_s": "s",
    "cli.evaluate.s": "s",
    "cli.evaluate.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
    "trace.spans": "count",
}


def import_program():
    """Import windramp from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "windramp" / "__init__.py").is_file():
        print(f"benchmark: no windramp sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    wr = importlib.import_module("windramp")
    if Path(wr.__file__).resolve().parent != (src / "windramp").resolve():
        print(f"benchmark: imported windramp from {wr.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    for module in ("cli", "synthetic", "series", "labeling", "gbrt", "evaluation", "baselines"):
        importlib.import_module(f"windramp.{module}")
    return wr


def calibration_ms() -> float:
    """Median time of a fixed pure-numpy job; shows host speed, never gated."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    x = rng.standard_normal(4096)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(50):
            np.cumsum(x)
            np.argsort(x)
            a @ a[:, :8]
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def source_commit() -> str:
    """The checkout's git commit when it has one, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        return next(line.split()[0] for line in packed.splitlines() if line.endswith(ref[5:]))
    except (OSError, StopIteration):
        return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def compare_hashes(record: Path, hashes: dict, ledger) -> None:
    """Outputs of one workload, size, seed and source tree must be
    byte-identical in every pass and every run; the first such run in a
    checkout records them."""
    if record.is_file():
        previous = json.loads(record.read_text(encoding="utf-8"))
        ledger.check(previous == hashes, f"outputs differ from an earlier run of this seed: {record}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(hashes, indent=1, sort_keys=True), encoding="utf-8")


def inputs_key(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:12]


def layer_metrics(summary: dict, wall: float, layer: dict) -> dict:
    names = summary["names"]

    def get(name: str, key: str = "s") -> float:
        return names.get(name, {}).get(key, 0)

    grow = names.get("gbrt.grow_tree", {}).get("durations", [])
    out = {
        "gbrt.grow_tree.s": get("gbrt.grow_tree"),
        "gbrt.grow_tree.calls": get("gbrt.grow_tree", "calls"),
        "gbrt.grow_tree.p50_ms": percentile_ms(grow, 50),
        "gbrt.grow_tree.p90_ms": percentile_ms(grow, 90),
        "gbrt.train.s": get("gbrt.train"),
        "gbrt.train.self_s": get("gbrt.train", "self_s"),
        "gbrt.train.calls": get("gbrt.train", "calls"),
        "gbrt.predict_class.s": get("gbrt.predict_class"),
        "gbrt.predict_class.rows": get("gbrt.predict_class", "rows"),
        "gbrt.predict_proba.s": get("gbrt.predict_proba"),
        "gbrt.predict_proba.calls": get("gbrt.predict_proba", "calls"),
        "gbrt.load_model.s": get("gbrt.load_model"),
        "gbrt.load_model.calls": get("gbrt.load_model", "calls"),
        "gbrt.save_model.s": get("gbrt.save_model"),
        "labeling.save_dataset.s": get("labeling.save_dataset"),
        "labeling.load_dataset.s": get("labeling.load_dataset"),
        "labeling.build_dataset.s": get("labeling.build_dataset"),
        "series.load_series.s": get("series.load_series"),
        "evaluation.grid_search.s": get("evaluation.grid_search"),
        "evaluation.grid_search.fits": names.get("gbrt.train", {}).get("under", {}).get("evaluation.grid_search", 0),
        "evaluation.stratified_split.s": get("evaluation.stratified_split"),
        "evaluation.metrics.s": get("evaluation.confusion") + get("evaluation.metrics"),
        "baselines.persistence_predict.s": get("baselines.persistence_predict"),
        "baselines.majority_predict.s": get("baselines.majority_predict"),
        "trace.wall_s": wall,
        "trace.coverage": summary["top_s"] / wall,
        "trace.spans": sum(entry["calls"] for entry in names.values()),
    }
    for stage in ("prepare", "train", "evaluate"):
        out[f"cli.{stage}.s"] = get(f"cli.{stage}")
        out[f"cli.{stage}.self_s"] = get(f"cli.{stage}", "self_s")
    out.update(layer)
    return out


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input, for the benchmark's self-test")
    args = parser.parse_args(argv)

    wr = import_program()
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    state = ROOT / ".bench_build" / "perfbench"
    tag = f"{args.workload}-{args.size}-s{args.seed}"
    work = state / "work" / f"{tag}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](wr, args.workload, args.size, args.seed, work)
    ledger = Ledger()
    tracer = Tracer()

    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "inputs": workload.inputs(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": source_commit(), "src_sha256": source_digest(),
        "calibration_ms_before": calibration_ms(),
    }

    setups, passes, traced = [], [], []
    walls: list[float] = []
    first_pass_rss_mb = 0.0

    try:
        for _ in range(workload.params["setup_repeats"]):
            t = time.perf_counter()
            info = workload.setup()
            info["setup_s"] = time.perf_counter() - t
            setups.append(info)
        ledger.check(len({info.get("model_sha256") for info in setups}) == 1,
                     "repeated set-up trained different models")
        while True:
            tracing = args.trace == 1 and len(walls) % 2 == 1
            if tracing:
                tracer.install(wr)
            t0 = time.perf_counter()
            try:
                res = workload.run_pass(ledger, tracer.span if tracing else contextlib.nullcontext)
            finally:
                t1 = time.perf_counter()
                tracer.uninstall()
            res = workload.finish_pass(res, ledger)
            if tracing:
                res["layer"] = layer_metrics(summarize(tracer.spans, t0, t1), t1 - t0, res["layer"])
                traced.append(res)
            else:
                passes.append(res)
            if len(walls) == 0:
                # later passes reuse a heap the first one grew, so the peak of
                # set-up plus one pass is the footprint a single run has
                first_pass_rss_mb = peak_rss_mb()
            walls.append(t1 - t0)
            if passes[0]["hashes"] != res["hashes"]:
                ledger.fail("outputs differ between passes of one run")
            if (args.trace == 0 or traced) and sum(walls) + statistics.median(walls) > args.seconds:
                break
        record_name = f"{tag}-{inputs_key(conditions['inputs'])}-{conditions['src_sha256']}.hashes.json"
        compare_hashes(state / "records" / record_name, passes[0]["hashes"], ledger)
    except PassAborted:
        pass
    except Exception as exc:  # a check that cannot run counts as failed, and the run still reports
        ledger.fail(f"{type(exc).__name__}: {exc}")
        conditions["traceback"] = traceback.format_exc()
    finally:
        tracer.uninstall()
    conditions["calibration_ms_after"] = calibration_ms()
    conditions["pass_wall_s"] = [round(w, 4) for w in walls]
    conditions["passes"] = len(passes)
    conditions["traced_passes"] = len(traced)

    metrics: dict[str, float] = {}
    extra: dict[str, float] = {}  # printed in the table, not gated
    if passes:
        metrics = {
            "setup_s": median_of(setups, "setup_s"),
            "peak_rss_mb": first_pass_rss_mb,
        }
        for key in END_TO_END:
            if key in passes[0]:
                metrics[key] = median_of(passes, key)
        if "row_s" in passes[0]:
            # Single-row calls and model loads last a millisecond or less,
            # and the host's speed swings by up to 1.8x for seconds at a
            # time, so their percentiles moved by 20-50 % between runs. They
            # are printed, not gated; on serve-rows wall_s is mostly these
            # calls and gates their mean.
            row_q = statistics.quantiles([t for r in passes for t in r["row_s"]], n=100, method="inclusive")
            load_q = statistics.quantiles([t for r in passes for t in r["load_s"]], n=10, method="inclusive")
            extra.update(predict_row_p10_us=row_q[9] * 1e6, predict_row_p50_us=row_q[49] * 1e6,
                         predict_row_p99_us=row_q[98] * 1e6, model_load_p10_ms=load_q[0] * 1e3,
                         model_load_p50_ms=load_q[4] * 1e3)
        if "train_s" not in metrics:
            metrics["train_s"] = median_of(setups, "train_s")
        if traced:
            layer = {key: median_of([r["layer"] for r in traced], key) for key in PER_LAYER
                     if key != "trace.overhead_s"}
            layer["trace.overhead_s"] = median_of(traced, "wall_s") - metrics["wall_s"]
    names = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace and traced else metrics
    result = {
        "correct": ledger.failed == 0 and bool(passes) and (not args.trace or bool(traced)),
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": names[k]} for k in names},
    }

    record = {"conditions": conditions, "result": result, "failures": ledger.messages[:20]}
    if traced:
        record["spans"] = tracer.spans
    (state / "records").mkdir(parents=True, exist_ok=True)
    (state / "records" / f"{tag}-t{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    print("conditions " + json.dumps(conditions, sort_keys=True))
    for message in ledger.messages[:20]:
        print(f"FAILED {message}")
    # ops and failed_frac are the result line's attempted and failed/attempted
    table = dict(result["metrics"])
    if not args.trace:
        table.update({k: {"value": v, "unit": k.rsplit("_", 1)[1]} for k, v in extra.items()})
    table["ops"] = {"value": result["attempted"], "unit": "count"}
    table["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "fraction"}
    for k, entry in table.items():
        print(f"{k:<34} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
