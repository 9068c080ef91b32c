"""Self-test of the benchmark: every workload at toy size, both modes.

    python3 perfbench/selftest.py

Checks that each run's last stdout line carries exactly the metrics that
BENCHMARK.json names, with their units, that the correctness checks pass,
that the traced passes' top-level spans cover the timed wall time, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 170


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def result(workload: str, trace: int) -> dict:
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "toy")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def check_metrics(self, res: dict, spec: list[dict]) -> None:
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in spec}
        self.assertEqual(set(res["metrics"]), set(expected))
        for name, entry in res["metrics"].items():
            self.assertEqual(entry["unit"], expected[name], name)
            self.assertIsInstance(entry["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = result(w["name"], 0)
                self.check_metrics(res, SPEC["end_to_end"])
                for name, entry in res["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)

    def test_traced_run(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = result(w["name"], 1)
                self.check_metrics(res, SPEC["per_layer"])
                m = {k: v["value"] for k, v in res["metrics"].items()}
                # top-level spans cover the traced pass: only the loop glue
                # between calls is outside them
                self.assertGreater(m["trace.coverage"], 0.9)
                self.assertLessEqual(m["trace.coverage"], 1.0 + 1e-9)
                self.assertGreater(m["gbrt.predict_proba.calls"], 0)
                self.assertGreater(m["gbrt.tree_nodes"], m["gbrt.tree_leaves"])
                if w["name"] != "serve-rows":
                    self.assertGreater(m["gbrt.grow_tree.calls"], 0)
                    self.assertGreater(m["labeling.save_dataset.s"], 0)
                    self.assertGreater(m["cli.train.s"], m["gbrt.train.s"] * 0.99)
                if w["name"] == "grid-small":
                    self.assertGreater(m["evaluation.grid_search.fits"], 0)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", "fit-year", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
