"""Span tracing of windramp's layers, installed from outside the package.

Each layer function is wrapped by replacing the attribute its caller
resolves the name from, so nothing in ``src/`` has to know about tracing.
Spans stay in memory as (name, start, end, parent, rows) and are written
out once the run ends.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager

# (span name, module, attribute). A module that binds a function with
# ``from .x import f`` resolves it in its own namespace, so that binding
# gets its own wrapper under the layer's name: evaluation.train is gbrt.train.
# Names missing at a commit are skipped.
LAYER_FUNCTIONS = (
    ("series.load_series", "series", "load_series"),
    ("labeling.build_dataset", "labeling", "build_dataset"),
    ("labeling.save_dataset", "labeling", "save_dataset"),
    ("labeling.load_dataset", "labeling", "load_dataset"),
    ("gbrt.train", "gbrt", "train"),
    ("gbrt.train", "evaluation", "train"),
    ("gbrt.grow_tree", "gbrt", "grow_tree"),
    ("gbrt.save_model", "gbrt", "save_model"),
    ("gbrt.load_model", "gbrt", "load_model"),
    ("evaluation.stratified_split", "evaluation", "stratified_split"),
    ("evaluation.grid_search", "evaluation", "grid_search"),
    ("evaluation.confusion", "evaluation", "confusion"),
    ("evaluation.metrics", "evaluation", "metrics"),
    ("baselines.persistence_predict", "baselines", "persistence_predict"),
    ("baselines.majority_predict", "baselines", "majority_predict"),
)

# (span name, module, class, method); these spans also count input rows.
LAYER_METHODS = (
    ("gbrt.predict_class", "gbrt", "GbrtModel", "predict_class"),
    ("gbrt.predict_proba", "gbrt", "GbrtModel", "predict_proba"),
)


class Tracer:
    """Records nested spans; parents are tracked per thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, rows]
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rows: int = 0):
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, rows]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn, count_rows: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = len(args[1]) if count_rows and len(args) > 1 else 0
            with self.span(name, rows):
                return fn(*args, **kwargs)

        return traced

    def install(self, package) -> None:
        """Wrap every layer function and method that exists in ``package``."""
        for name, module, attr in LAYER_FUNCTIONS:
            self._replace(getattr(package, module, None), attr, name, False)
        for name, module, cls, attr in LAYER_METHODS:
            self._replace(getattr(getattr(package, module, None), cls, None), attr, name, True)

    def _replace(self, owner, attr: str, name: str, count_rows: bool) -> None:
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            return
        setattr(owner, attr, self._wrap(name, fn, count_rows))
        self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)


def summarize(spans: list[list], t0: float, t1: float) -> dict:
    """Per-name totals for the spans that start within [t0, t1].

    ``s`` counts a span only when no ancestor has the same name, so
    recursion is not counted twice; ``self_s`` is a span's duration minus
    its direct children's. ``top_s`` is the time covered by top-level spans.
    """
    chosen = [i for i, sp in enumerate(spans) if t0 <= sp[1] <= t1]
    child_time: dict[int, float] = {}
    for i in chosen:
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i][2] - spans[i][1]
    out: dict[str, dict] = {}
    top_s = 0.0
    for i in chosen:
        name, start, end, parent, rows = spans[i]
        dur = end - start
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0, "durations": [], "under": {}})
        entry["calls"] += 1
        entry["rows"] += rows
        entry["self_s"] += dur - child_time.get(i, 0.0)
        entry["durations"].append(dur)
        if parent < 0:
            top_s += dur
        ancestors = set()
        while parent >= 0:
            ancestors.add(spans[parent][0])
            parent = spans[parent][3]
        if name not in ancestors:
            entry["s"] += dur
        for a in ancestors:
            entry["under"][a] = entry["under"].get(a, 0) + 1
    return {"names": out, "top_s": top_s}


def percentile_ms(durations: list[float], q: int) -> float:
    """q-th percentile of span durations, in milliseconds (0 with no spans)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3
