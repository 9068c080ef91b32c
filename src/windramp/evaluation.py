"""Splitting, cross-validated grid search, the metric suite, and the
scoring of a GBRT against the persistence and majority baselines.

Metrics follow the one-vs-rest convention per class: precision, recall, and
F1 from the confusion matrix, macro-averaged into an overall score, with a
separate macro F1 over the rare (severe) classes. A class that is never
predicted and never true gets F1 = 0.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import baselines
from .errors import ConfigError, DataError
from .gbrt import GbrtModel, HyperParams, train
from .labeling import HorizonSpec, LabeledDataset
from .series import WindPowerSeries

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[a-1, p-1] = instances of true class a predicted as class p."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DataError(f"confusion matrix must be square, got shape {counts.shape}")
        if np.any(counts < 0):
            raise DataError("confusion matrix entries must be >= 0")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def num_classes(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def true_positives(self, class_id: int) -> int:
        return int(self.counts[class_id - 1, class_id - 1])

    def false_positives(self, class_id: int) -> int:
        c = class_id - 1
        return int(self.counts[:, c].sum() - self.counts[c, c])

    def false_negatives(self, class_id: int) -> int:
        c = class_id - 1
        return int(self.counts[c].sum() - self.counts[c, c])


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class: dict[int, ClassMetrics]
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
                str(c): {"precision": m.precision, "recall": m.recall, "f1": m.f1}
                for c, m in self.per_class.items()
            },
        }
        if self.horizon is not None:
            out["steps_ahead"] = self.horizon.steps_ahead
        return out


def confusion(true: np.ndarray, predicted: np.ndarray, num_classes: int) -> ConfusionMatrix:
    """Count matrix over 1-based class ids."""
    true = np.asarray(true, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true.shape != predicted.shape or true.ndim != 1:
        raise DataError(
            f"true/predicted must be equal-length vectors, got {true.shape} vs {predicted.shape}"
        )
    for name, arr in (("true", true), ("predicted", predicted)):
        if arr.size and (arr.min() < 1 or arr.max() > num_classes):
            raise DataError(f"unknown class id in {name} labels (valid: 1..{num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (true - 1, predicted - 1), 1)
    return ConfusionMatrix(counts)


def _prf(tp: int, fp: int, fn: int) -> ClassMetrics:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ClassMetrics(precision, recall, f1)


def metrics(
    cm: ConfusionMatrix,
    rare_classes: tuple[int, ...] | None = None,
    horizon: HorizonSpec | None = None,
) -> MetricsReport:
    """Accuracy, one-vs-rest precision/recall/F1 per class, macro overall F1,
    and macro F1 over the rare classes."""
    if cm.total == 0:
        raise DataError("cannot compute metrics on an empty confusion matrix")
    class_ids = range(1, cm.num_classes + 1)
    if rare_classes is None:
        rare_classes = (1, cm.num_classes)
    rare = tuple(sorted(set(int(c) for c in rare_classes)))
    if any(c < 1 or c > cm.num_classes for c in rare):
        raise DataError(f"rare classes {rare} outside 1..{cm.num_classes}")
    per_class = {
        c: _prf(cm.true_positives(c), cm.false_positives(c), cm.false_negatives(c))
        for c in class_ids
    }
    overall_f1 = float(np.mean([per_class[c].f1 for c in class_ids]))
    rare_f1 = float(np.mean([per_class[c].f1 for c in rare])) if rare else 0.0
    return MetricsReport(
        accuracy=float(np.trace(cm.counts) / cm.total),
        per_class=per_class,
        overall_f1=overall_f1,
        rare_f1=rare_f1,
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
        object.__setattr__(self, "n_estimators_choices", tuple(int(v) for v in self.n_estimators_choices))
        object.__setattr__(self, "max_depth_choices", tuple(int(v) for v in self.max_depth_choices))


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


def grid_search(
    dataset: LabeledDataset,
    grid: ParamGrid,
    fixed: HyperParams | None = None,
    seed: int = 0,
    workers: int | None = 1,
) -> tuple[HyperParams, list[GridCell]]:
    """Evaluate every grid combination with stratified k-fold CV.

    The selection criterion is mean validation macro-F1; ties break toward
    the smaller n_estimators, then the smaller max_depth. Returns the
    winning HyperParams (the fixed params with the winning pair substituted)
    plus the full CV table. The (cell, fold) fits run on up to ``workers``
    threads (None = all cores); each fit is independent and results are
    collected in job order, so the output does not depend on ``workers``.
    """
    fixed = fixed or HyperParams()
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    folds = stratified_folds(dataset.targets, grid.folds, seed)
    cells = [(n_est, depth) for n_est in grid.n_estimators_choices for depth in grid.max_depth_choices]
    jobs = [(cell, fold_rows) for cell in cells for fold_rows in folds]

    def fit_and_score(job) -> float:
        (n_est, depth), fold_rows = job
        held = np.zeros(len(dataset), dtype=bool)
        held[fold_rows] = True
        model = train(dataset.select(np.flatnonzero(~held)), replace(fixed, n_estimators=n_est, max_depth=depth))
        val = dataset.select(fold_rows)
        cm = confusion(val.targets, model.predict_class(val.features), dataset.num_classes)
        return metrics(cm, dataset.thresholds.rare_class_ids).overall_f1

    cores = os.cpu_count() or 1
    threads = min(workers or cores, cores, len(jobs))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scores = list(pool.map(fit_and_score, jobs))
    else:
        scores = [fit_and_score(job) for job in jobs]
    table = []
    for i, (n_est, depth) in enumerate(cells):
        fold_scores = tuple(scores[i * len(folds):(i + 1) * len(folds)])
        table.append(GridCell(n_est, depth, fold_scores, float(np.mean(fold_scores))))
    best = max(table, key=lambda cell: (cell.mean_score, -cell.n_estimators, -cell.max_depth))
    return replace(fixed, n_estimators=best.n_estimators, max_depth=best.max_depth), table


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
    model_name: str = ""
    test_seconds_per_example: float | None = None

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "mean_accuracy": self.mean_accuracy,
            "mean_overall_f1": self.mean_overall_f1,
            "mean_rare_f1": self.mean_rare_f1,
            "pooled_accuracy": self.pooled_accuracy,
            "per_horizon": [r.to_dict() for r in self.per_horizon],
        }


def aggregate_reports(
    reports_with_cms: list[tuple[MetricsReport, ConfusionMatrix]],
    model_name: str = "",
    test_seconds_per_example: float | None = None,
) -> MultiHorizonReport:
    if not reports_with_cms:
        raise DataError("no per-horizon reports to aggregate")
    reports = [r for r, _ in reports_with_cms]
    pooled = np.sum([cm.counts for _, cm in reports_with_cms], axis=0)
    return MultiHorizonReport(
        per_horizon=tuple(reports),
        mean_accuracy=float(np.mean([r.accuracy for r in reports])),
        mean_overall_f1=float(np.mean([r.overall_f1 for r in reports])),
        mean_rare_f1=float(np.mean([r.rare_f1 for r in reports])),
        pooled_accuracy=float(np.trace(pooled) / pooled.sum()),
        model_name=model_name,
        test_seconds_per_example=test_seconds_per_example,
    )


def evaluate_horizons(
    series: WindPowerSeries,
    items: Iterable[tuple[GbrtModel, LabeledDataset, LabeledDataset]],
) -> list[MultiHorizonReport]:
    """Score GBRT, persistence and majority on each horizon's test rows.

    ``items`` holds one (model, train part, test part) triple per horizon,
    both parts split from the dataset built from ``series``. Persistence is
    scored on the test anchors it reaches (all of them when L-1 >= S), and
    majority predicts the modal class of the train part. Triples are
    consumed one at a time, so a generator keeps a single horizon in memory.
    Returns the gbrt, persistence and majority reports, in that order, each
    with its wall-clock seconds per test example.
    """
    scored = {name: ([], [0.0, 0]) for name in ("gbrt", "persistence", "majority")}

    def score(name, true, predicted, test: LabeledDataset, seconds: float) -> None:
        cm = confusion(true, predicted, test.num_classes)
        pairs, clock = scored[name]
        pairs.append((metrics(cm, test.thresholds.rare_class_ids, test.horizon), cm))
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
        pers = baselines.persistence_predict(series, test.horizon, test.thresholds)
        pers = pers.restrict(test.anchor_ts)
        score("persistence", pers.true, pers.predicted, test, time.perf_counter() - t0)

        t0 = time.perf_counter()
        majority = baselines.majority_predict(train_part.targets, len(test))
        score("majority", test.targets, majority, test, time.perf_counter() - t0)

    if not seen:
        raise DataError("no (model, train, test) triples given")
    return [
        aggregate_reports(pairs, name, clock[0] / clock[1] if clock[1] else 0.0)
        for name, (pairs, clock) in scored.items()
    ]


def format_report_table(reports: list[MultiHorizonReport]) -> str:
    """Aligned plain-text comparison table (one block per model), with the
    per-horizon breakdown underneath."""
    lines = []
    header = f"{'Model':<14}{'Accuracy':>10}{'F1 (overall)':>14}{'F1 (rare)':>11}{'ms/example':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for rep in reports:
        ms = "-" if rep.test_seconds_per_example is None else f"{rep.test_seconds_per_example * 1e3:.3f}"
        lines.append(
            f"{rep.model_name:<14}{rep.mean_accuracy:>10.4f}{rep.mean_overall_f1:>14.4f}"
            f"{rep.mean_rare_f1:>11.4f}{ms:>12}"
        )
    lines.append("")
    for rep in reports:
        lines.append(f"{rep.model_name} per horizon (accuracy / overall F1 / rare F1):")
        for r in rep.per_horizon:
            steps = r.horizon.steps_ahead if r.horizon else "?"
            lines.append(
                f"  S={steps}: {r.accuracy:.4f} / {r.overall_f1:.4f} / {r.rare_f1:.4f}"
            )
        lines.append(f"  pooled accuracy: {rep.pooled_accuracy:.4f}")
    return "\n".join(lines) + "\n"
