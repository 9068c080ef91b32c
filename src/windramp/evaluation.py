"""Splitting, every horizon's fits (cross-validated grid search, then the
final model) on one process pool, the metric suite, and the scoring of a
GBRT against the persistence and majority baselines. The pool runs
processes, not threads: trees grow by short numpy calls that hold the GIL.

Scoring passes around one read-only k x k int64 count array (``confusion``).
``metrics`` reads every class off it at once: the diagonal over the column
and row sums gives one-vs-rest precision and recall, their F1 is averaged
into an overall score, and a separate macro F1 covers the rare (severe)
classes. A ratio with a zero denominator reads 0, so a class that is never
predicted and never true gets F1 = 0.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import baselines
from .errors import ConfigError, DataError, TrainingError
from .gbrt import GbrtModel, HyperParams, train
from .labeling import HorizonSpec, LabeledDataset
from .series import WindPowerSeries

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MetricsReport:
    """Scores of one count array; index c-1 of each per-class tuple is class c."""

    accuracy: float
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    overall_f1: float
    rare_f1: float
    rare_classes: tuple[int, ...]
    horizon: HorizonSpec | None = None

    def to_dict(self) -> dict:
        out = {
            "accuracy": self.accuracy,
            "overall_f1": self.overall_f1,
            "rare_f1": self.rare_f1,
            "rare_classes": list(self.rare_classes),
            "per_class": {
                str(c): {"precision": p, "recall": r, "f1": f}
                for c, (p, r, f) in enumerate(zip(self.precision, self.recall, self.f1), start=1)
            },
        }
        if self.horizon is not None:
            out["steps_ahead"] = self.horizon.steps_ahead
        return out


def confusion(true: np.ndarray, predicted: np.ndarray, num_classes: int) -> np.ndarray:
    """Read-only k x k int64 counts: [a-1, p-1] = rows of true class a
    predicted as class p (1-based class ids)."""
    true = np.asarray(true, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true.shape != predicted.shape or true.ndim != 1:
        raise DataError(
            f"true/predicted must be equal-length vectors, got {true.shape} vs {predicted.shape}"
        )
    for name, arr in (("true", true), ("predicted", predicted)):
        if arr.size and (arr.min() < 1 or arr.max() > num_classes):
            raise DataError(f"unknown class id in {name} labels (valid: 1..{num_classes})")
    k = num_classes
    counts = np.bincount((true - 1) * k + predicted - 1, minlength=k * k).reshape(k, k)
    counts.setflags(write=False)
    return counts


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def metrics(
    counts: np.ndarray,
    rare_classes: tuple[int, ...] | None = None,
    horizon: HorizonSpec | None = None,
) -> MetricsReport:
    """Accuracy, one-vs-rest precision/recall/F1 per class, macro overall F1,
    and macro F1 over the rare classes, all classes at once."""
    total = counts.sum()
    if total == 0:
        raise DataError("cannot compute metrics on an empty confusion matrix")
    k = counts.shape[0]
    if rare_classes is None:
        rare_classes = (1, k)
    rare = tuple(sorted(set(int(c) for c in rare_classes)))
    if any(c < 1 or c > k for c in rare):
        raise DataError(f"rare classes {rare} outside 1..{k}")
    tp = np.diagonal(counts)
    precision = _ratio(tp, counts.sum(axis=0))
    recall = _ratio(tp, counts.sum(axis=1))
    f1 = _ratio(2 * precision * recall, precision + recall)
    return MetricsReport(
        accuracy=float(np.trace(counts) / total),
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f1=tuple(f1.tolist()),
        overall_f1=float(np.mean(f1)),
        rare_f1=float(np.mean(f1[[c - 1 for c in rare]])) if rare else 0.0,
        rare_classes=rare,
        horizon=horizon,
    )


def _per_class_test_counts(counts: np.ndarray, test_fraction: float) -> np.ndarray:
    """Largest-remainder allocation of round(fraction*n) test slots across
    classes; remainder ties go to the lower class id."""
    n = int(counts.sum())
    total_test = int(round(test_fraction * n))
    exact = test_fraction * counts
    alloc = np.floor(exact).astype(np.int64)
    alloc = np.minimum(alloc, counts)
    deficit = total_test - int(alloc.sum())
    if deficit > 0:
        remainders = exact - np.floor(exact)
        # stable sort on -remainder keeps lower class id first among ties
        order = np.argsort(-remainders, kind="stable")
        for c in order:
            if deficit == 0:
                break
            if alloc[c] < counts[c]:
                alloc[c] += 1
                deficit -= 1
    return alloc


def stratified_split(
    dataset: LabeledDataset,
    test_fraction: float,
    seed: int,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic stratified shuffle split into (train, test).

    Per-class test counts come from largest-remainder rounding, so each
    class's proportion in both parts is within one instance of the overall
    proportion. A class with a single instance is reported and forced into
    the train part.
    """
    if not (0 < test_fraction < 1):
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    y = dataset.targets
    rng = np.random.default_rng(seed)
    counts = np.bincount(y, minlength=dataset.num_classes + 1)[1:]
    singles = np.flatnonzero(counts == 1) + 1
    if singles.size:
        logger.warning(
            "classes %s have a single instance; assigning to train", singles.tolist()
        )
    eligible = counts.copy()
    eligible[singles - 1] = 0
    alloc = _per_class_test_counts(eligible, test_fraction)

    test_parts = []
    train_parts = []
    for c in range(1, dataset.num_classes + 1):
        idx = np.flatnonzero(y == c)
        if idx.size == 0:
            continue
        perm = idx[rng.permutation(idx.size)]
        k = int(alloc[c - 1])
        test_parts.append(perm[:k])
        train_parts.append(perm[k:])
    test_rows = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=np.int64)
    train_rows = np.sort(np.concatenate(train_parts))
    return dataset.select(train_rows), dataset.select(test_rows)


def stratified_folds(targets: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """k stratified folds of row positions (sorted within each fold).

    Classes with fewer than k instances get spread over the first folds;
    the split degrades rather than fails, mirroring stratified_split.
    """
    if k < 2:
        raise ConfigError(f"folds must be >= 2, got {k}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size < k:
        raise DataError(f"cannot build {k} folds from {targets.size} rows")
    rng = np.random.default_rng(seed)
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for c in np.unique(targets):
        idx = np.flatnonzero(targets == c)
        perm = idx[rng.permutation(idx.size)]
        for f, chunk in enumerate(np.array_split(perm, k)):
            if chunk.size:
                folds[f].append(chunk)
    out = []
    for parts in folds:
        rows = np.sort(np.concatenate(parts)) if parts else np.array([], dtype=np.int64)
        if rows.size == 0:
            raise DataError(f"{k} folds are infeasible: a fold came out empty")
        out.append(rows)
    return out


@dataclass(frozen=True)
class ParamGrid:
    """Model-selection grid: every (n_estimators, max_depth) pair is scored
    with k-fold stratified CV."""

    n_estimators_choices: tuple[int, ...] = (50, 100, 200)
    max_depth_choices: tuple[int, ...] = (2, 4, 6)
    folds: int = 3

    def __post_init__(self):
        if not self.n_estimators_choices or not self.max_depth_choices:
            raise ConfigError("grid choice lists must be non-empty")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")


@dataclass(frozen=True)
class GridCell:
    n_estimators: int
    max_depth: int
    fold_scores: tuple[float, ...]
    mean_score: float

    def to_dict(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "fold_scores": list(self.fold_scores),
            "mean_score": self.mean_score,
        }


def _fit(part: LabeledDataset, params: HyperParams) -> GbrtModel:
    # a pool pickles this function by name; ``train`` itself may be wrapped
    # in a closure (a tracer does that), which cannot be pickled
    return train(part, params)


def _fit_and_score(part: LabeledDataset, params: HyperParams, fold_rows: np.ndarray) -> float:
    """Validation macro-F1 on ``fold_rows`` of a model fit on the other rows."""
    held = np.zeros(len(part), dtype=bool)
    held[fold_rows] = True
    model = train(part.select(np.flatnonzero(~held)), params)
    val = part.select(fold_rows)
    counts = confusion(val.targets, model.predict_class(val.features), part.num_classes)
    return metrics(counts, part.thresholds.rare_class_ids).overall_f1


@contextmanager
def _mapper(processes: int):
    """``map`` over a pool of ``processes`` worker processes, or the builtin
    ``map`` (no process, no thread) when there is one. A job that raises
    cancels the jobs not yet started; a worker that dies is a TrainingError."""
    if processes <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=processes) as pool:
        try:
            yield pool.map
        except BrokenProcessPool as exc:
            raise TrainingError(f"a training worker process died: {exc}") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def fit_horizons(
    parts: list[LabeledDataset],
    grid: ParamGrid | None,
    fixed: HyperParams | None = None,
    seed: int = 0,
    workers: int | None = 1,
) -> list[tuple[HyperParams, list[GridCell], GbrtModel]]:
    """Select hyperparameters for each train part and fit its final model.

    With a grid, every (n_estimators, max_depth) pair is scored on each part
    with stratified k-fold CV. The selection criterion is mean validation
    macro-F1; ties break toward the smaller n_estimators, then the smaller
    max_depth. Each part's final model is then fit with the fixed params
    with its winning pair substituted (the fixed params as given when
    ``grid`` is None, with an empty table). Returns one (params, CV table,
    model) per part.

    Every part's (cell, fold) fits, and then every part's final fit, run on
    one pool of up to ``workers`` processes (None = all cores). Each fit is
    independent and results come back in job order, so the output does not
    depend on ``workers``.
    """
    fixed = fixed or HyperParams()
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    cells = [] if grid is None else [
        replace(fixed, n_estimators=n_est, max_depth=depth)
        for n_est in grid.n_estimators_choices for depth in grid.max_depth_choices
    ]
    cv_jobs = []
    for part in parts:
        folds = stratified_folds(part.targets, grid.folds, seed) if cells else []
        cv_jobs += [(part, params, fold_rows) for params in cells for fold_rows in folds]
    cores = os.cpu_count() or 1
    with _mapper(min(workers or cores, cores, max(len(cv_jobs), len(parts)))) as run:
        scores = iter(list(run(_fit_and_score, *zip(*cv_jobs))) if cv_jobs else [])
        tables, chosen = [], []
        for _ in parts:
            table = []
            for params in cells:
                fold_scores = tuple(itertools.islice(scores, grid.folds))
                mean = float(np.mean(fold_scores))
                table.append(GridCell(params.n_estimators, params.max_depth, fold_scores, mean))
            tables.append(table)
            best = max(table, key=lambda cell: (cell.mean_score, -cell.n_estimators, -cell.max_depth), default=None)
            chosen.append(fixed if best is None else cells[table.index(best)])
        models = list(run(_fit, parts, chosen))
    return list(zip(chosen, tables, models))


@dataclass(frozen=True)
class MultiHorizonReport:
    """Per-horizon reports plus unweighted means across horizons.

    ``pooled_accuracy`` (trace over the summed confusion matrix) is carried
    alongside the headline mean-over-horizons accuracy.
    ``test_seconds_per_example`` is wall-clock and stays out of ``to_dict``,
    so the dictionary is a deterministic function of the predictions.
    """

    per_horizon: tuple[MetricsReport, ...]
    mean_accuracy: float
    mean_overall_f1: float
    mean_rare_f1: float
    pooled_accuracy: float
    model_name: str
    test_seconds_per_example: float

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "mean_accuracy": self.mean_accuracy,
            "mean_overall_f1": self.mean_overall_f1,
            "mean_rare_f1": self.mean_rare_f1,
            "pooled_accuracy": self.pooled_accuracy,
            "per_horizon": [r.to_dict() for r in self.per_horizon],
        }


def evaluate_horizons(
    series: WindPowerSeries,
    items: Iterable[tuple[GbrtModel, LabeledDataset, LabeledDataset]],
) -> list[MultiHorizonReport]:
    """Score GBRT, persistence and majority on each horizon's test rows.

    ``items`` holds one (model, train part, test part) triple per horizon,
    both parts split from the dataset built from ``series``. Persistence is
    scored on the test rows whose anchor has an observation S steps back
    (all of them when L-1 >= S), and majority predicts the modal class of
    the train part. Triples are consumed one at a time, so a generator keeps
    a single horizon in memory. Returns the gbrt, persistence and majority
    reports, in that order, each with its wall-clock seconds per test example.
    """
    scored = {name: ([], [], [0.0, 0]) for name in ("gbrt", "persistence", "majority")}

    def score(name, true, predicted, test: LabeledDataset, seconds: float) -> None:
        counts = confusion(true, predicted, test.num_classes)
        reports, pooled, clock = scored[name]
        reports.append(metrics(counts, test.thresholds.rare_class_ids, test.horizon))
        pooled.append(counts)
        clock[0] += seconds
        clock[1] += len(true)

    seen = set()
    for model, train_part, test in items:
        if model.n_features != test.horizon.lag_count:
            raise DataError(
                f"horizon mismatch: model width {model.n_features} vs dataset "
                f"lag_count {test.horizon.lag_count}"
            )
        if model.num_classes != test.num_classes:
            raise DataError(
                f"horizon mismatch: model has {model.num_classes} classes, dataset "
                f"{test.num_classes}"
            )
        s = test.horizon.steps_ahead
        if s in seen:
            raise DataError(f"duplicate horizon steps_ahead={s}")
        seen.add(s)

        t0 = time.perf_counter()
        predicted = model.predict_class(test.features)
        score("gbrt", test.targets, predicted, test, time.perf_counter() - t0)

        t0 = time.perf_counter()
        true, predicted = baselines.persistence_predict(series, test)
        score("persistence", true, predicted, test, time.perf_counter() - t0)

        t0 = time.perf_counter()
        majority = baselines.majority_predict(train_part.targets, len(test))
        score("majority", test.targets, majority, test, time.perf_counter() - t0)

    if not seen:
        raise DataError("no (model, train, test) triples given")
    return [
        _aggregate(reports, pooled, name, clock[0] / clock[1] if clock[1] else 0.0)
        for name, (reports, pooled, clock) in scored.items()
    ]


def _aggregate(
    reports: list[MetricsReport],
    counts: list[np.ndarray],
    model_name: str,
    test_seconds_per_example: float,
) -> MultiHorizonReport:
    """Means of the per-horizon scores, plus accuracy over the summed counts."""
    pooled = np.sum(counts, axis=0)
    return MultiHorizonReport(
        per_horizon=tuple(reports),
        mean_accuracy=float(np.mean([r.accuracy for r in reports])),
        mean_overall_f1=float(np.mean([r.overall_f1 for r in reports])),
        mean_rare_f1=float(np.mean([r.rare_f1 for r in reports])),
        pooled_accuracy=float(np.trace(pooled) / pooled.sum()),
        model_name=model_name,
        test_seconds_per_example=test_seconds_per_example,
    )


def format_report_table(reports: list[MultiHorizonReport]) -> str:
    """Aligned plain-text comparison table (one block per model), with the
    per-horizon breakdown underneath."""
    lines = []
    header = f"{'Model':<14}{'Accuracy':>10}{'F1 (overall)':>14}{'F1 (rare)':>11}{'ms/example':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for rep in reports:
        lines.append(
            f"{rep.model_name:<14}{rep.mean_accuracy:>10.4f}{rep.mean_overall_f1:>14.4f}"
            f"{rep.mean_rare_f1:>11.4f}{rep.test_seconds_per_example * 1e3:>12.3f}"
        )
    lines.append("")
    for rep in reports:
        lines.append(f"{rep.model_name} per horizon (accuracy / overall F1 / rare F1):")
        for r in rep.per_horizon:
            lines.append(
                f"  S={r.horizon.steps_ahead}: {r.accuracy:.4f} / {r.overall_f1:.4f} / {r.rare_f1:.4f}"
            )
        lines.append(f"  pooled accuracy: {rep.pooled_accuracy:.4f}")
    return "\n".join(lines) + "\n"
