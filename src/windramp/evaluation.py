"""Splitting, every horizon's fits (cross-validated grid search, then the
final model) on one process pool, the metric suite, and the scoring of a
GBRT against the persistence and majority baselines. The pool runs
processes, not threads: trees grow by short numpy calls that hold the GIL.

The stratified test split and the stratified CV folds come from one
allocator: ``_largest_remainder`` sizes each class's parts, and ``_deal``
shuffles each class's rows with one seeded generator and deals them out.

Scoring passes around one read-only k x k int64 count array (``confusion``).
``metrics`` reads every class off it at once: the diagonal over the column
and row sums gives one-vs-rest precision and recall, their F1 is averaged
into an overall score, and a separate macro F1 covers the rare (severe)
classes. A ratio with a zero denominator reads 0, so a class that is never
predicted and never true gets F1 = 0.

Each report is built once, as the JSON document it is written as:
``evaluate_horizons`` returns the content of ``evaluation.json`` (wall-clock
seconds per example come back beside it, never inside it), and
``fit_horizons`` returns each cross-validation table as the rows of
``grid_horizon_S.json``. ``format_report_table`` renders the evaluation
document as the text table ``windramp evaluate`` prints.
"""

from __future__ import annotations

import itertools
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
from .labeling import LabeledDataset


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

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "overall_f1": self.overall_f1,
            "rare_f1": self.rare_f1,
            "rare_classes": list(self.rare_classes),
            "per_class": {
                str(c): {"precision": p, "recall": r, "f1": f}
                for c, (p, r, f) in enumerate(zip(self.precision, self.recall, self.f1), start=1)
            },
        }


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


def metrics(counts: np.ndarray, rare_classes: tuple[int, ...]) -> MetricsReport:
    """Accuracy, one-vs-rest precision/recall/F1 per class, macro overall F1,
    and macro F1 over the rare classes, all classes at once."""
    total = counts.sum()
    if total == 0:
        raise DataError("cannot compute metrics on an empty confusion matrix")
    k = counts.shape[0]
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
    )


def _largest_remainder(exact: np.ndarray, total, cap) -> np.ndarray:
    """Integer sizes along the last axis of ``exact`` that add up to ``total``:
    each floor (at most ``cap``), plus one for the largest remainders below
    their cap, ties to the earlier entry."""
    floor = np.floor(exact)
    sizes = np.minimum(floor.astype(np.int64), cap)
    order = np.argsort(floor - exact, axis=-1, kind="stable")
    is_open = np.take_along_axis(sizes < cap, order, axis=-1)
    bump = is_open & (np.cumsum(is_open, axis=-1) <= np.expand_dims(total - sizes.sum(axis=-1), -1))
    np.put_along_axis(sizes, order, np.take_along_axis(sizes, order, axis=-1) + bump, axis=-1)
    return sizes


def _deal(targets: np.ndarray, sizes: np.ndarray, seed: int) -> list[np.ndarray]:
    """Sorted row positions of each part. One ``default_rng(seed)`` shuffles
    each present class's rows in ascending class order, and the shuffled rows
    are dealt in part order: ``sizes[c-1, p]`` rows of class c to part p."""
    rng = np.random.default_rng(seed)
    part_of = np.empty(targets.size, dtype=np.int64)
    for c in np.flatnonzero(np.bincount(targets)):
        idx = np.flatnonzero(targets == c)
        part_of[idx[rng.permutation(idx.size)]] = np.repeat(np.arange(sizes.shape[1]), sizes[c - 1])
    return [np.flatnonzero(part_of == p) for p in range(sizes.shape[1])]


def stratified_split(dataset: LabeledDataset, test_fraction: float, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic stratified shuffle split into (train, test). ``_deal``
    gives each class's first rows to test: round(fraction * n) rows shared
    among the classes by largest remainder (ties to the lower class id), so
    each class's test share is within one row of the fraction. A class with
    a single instance is kept in train."""
    if not (0 < test_fraction < 1):
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(dataset) == 0:
        raise DataError("cannot split an empty dataset")
    counts = np.bincount(dataset.targets, minlength=dataset.num_classes + 1)[1:]
    eligible = np.where(counts == 1, 0, counts)
    test = _largest_remainder(test_fraction * eligible, round(test_fraction * int(eligible.sum())), eligible)
    test_rows, train_rows = _deal(dataset.targets, np.column_stack([test, counts - test]), seed)
    return dataset.select(train_rows), dataset.select(test_rows)


def stratified_folds(targets: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """k stratified folds of sorted row positions. ``_deal`` shares each
    class's rows among the folds in order by largest remainder, ties to the
    lower fold (the sizes ``np.array_split`` gives), so a class with fewer
    than k rows fills the first folds. A fold left empty is an error."""
    if k < 2:
        raise ConfigError(f"folds must be >= 2, got {k}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size < k:
        raise DataError(f"cannot build {k} folds from {targets.size} rows")
    counts = np.bincount(targets)[1:, None]
    folds = _deal(targets, _largest_remainder(np.repeat(counts / k, k, axis=1), counts[:, 0], counts), seed)
    if any(rows.size == 0 for rows in folds):
        raise DataError(f"{k} folds are infeasible: a fold came out empty")
    return folds


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
) -> list[tuple[HyperParams, list[dict], GbrtModel]]:
    """Select hyperparameters for each train part and fit its final model.

    With a grid, every (n_estimators, max_depth) pair is scored on each part
    with stratified k-fold CV. The selection criterion is mean validation
    macro-F1; ties break toward the smaller n_estimators, then the smaller
    max_depth. Each part's final model is then fit with the fixed params
    with its winning pair substituted (the fixed params as given when
    ``grid`` is None, with an empty table). Returns one (params, CV table,
    model) per part; the table holds one row per cell, as written to
    ``grid_horizon_S.json``: ``n_estimators``, ``max_depth``, the
    ``fold_scores`` and their ``mean_score``.

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
                fold_scores = list(itertools.islice(scores, grid.folds))
                table.append({"n_estimators": params.n_estimators, "max_depth": params.max_depth,
                              "fold_scores": fold_scores, "mean_score": float(np.mean(fold_scores))})
            tables.append(table)
            best = max(table, key=lambda cell: (cell["mean_score"], -cell["n_estimators"], -cell["max_depth"]),
                       default=None)
            chosen.append(fixed if best is None else cells[table.index(best)])
        models = list(run(_fit, parts, chosen))
    return list(zip(chosen, tables, models))


def evaluate_horizons(
    items: Iterable[tuple[GbrtModel, LabeledDataset, LabeledDataset]],
) -> tuple[dict, dict[str, float]]:
    """Score GBRT, persistence and majority on each horizon's test rows.

    ``items`` holds one (model, train part, test part) triple per horizon,
    both parts split from one horizon's dataset. Persistence is scored on
    the test rows with an observed class (all of them when L-1 >= S), and
    majority predicts the modal class of the train part. A predictor that
    predicts no test row of a horizon is a DataError naming the horizon and
    the predictor. Triples are consumed one at a time, so a generator keeps
    a single horizon in memory.

    Returns ``(doc, seconds)``. ``doc`` is the content of
    ``evaluation.json``: ``{"models": [...]}`` with one entry for gbrt,
    persistence and majority, in that order, each holding its ``model``
    name, the unweighted means over horizons ``mean_accuracy``,
    ``mean_overall_f1`` and ``mean_rare_f1``, the ``pooled_accuracy`` (the
    accuracy of the horizons' count arrays summed into one), and
    ``per_horizon``: one ``MetricsReport.to_dict()`` per horizon, in the
    order given, plus its ``steps_ahead``. ``doc`` is a deterministic function of the predictions;
    ``seconds`` maps each predictor to its wall-clock seconds per test
    example and is kept apart from it.
    """
    predictors = {
        "gbrt": lambda model, _, test: (test.targets, model.predict_class(test.features)),
        "persistence": lambda _, __, test: baselines.persistence_predict(test),
        "majority": lambda _, train_ds, test: (test.targets, baselines.majority_predict(train_ds.targets, len(test))),
    }
    scored = {name: ([], [], [0.0, 0]) for name in predictors}
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
        for name, predict in predictors.items():
            t0 = time.perf_counter()
            true, predicted = predict(model, train_part, test)
            seconds = time.perf_counter() - t0
            if not len(true):
                raise DataError(f"horizon S={s}: {name} predicts no test row, so its confusion matrix is empty")
            counts = confusion(true, predicted, test.num_classes)
            per_horizon, horizon_counts, clock = scored[name]
            per_horizon.append({**metrics(counts, test.thresholds.rare_class_ids).to_dict(), "steps_ahead": s})
            horizon_counts.append(counts)
            clock[0] += seconds
            clock[1] += len(true)

    if not seen:
        raise DataError("no (model, train, test) triples given")
    models, seconds = [], {}
    for name, (per_horizon, horizon_counts, (elapsed, examples)) in scored.items():
        pooled = np.sum(horizon_counts, axis=0)
        models.append({
            "model": name,
            **{f"mean_{key}": float(np.mean([r[key] for r in per_horizon]))
               for key in ("accuracy", "overall_f1", "rare_f1")},
            "pooled_accuracy": float(np.trace(pooled) / pooled.sum()),
            "per_horizon": per_horizon,
        })
        seconds[name] = elapsed / examples if examples else 0.0
    return {"models": models}, seconds


def format_report_table(doc: dict, seconds: dict[str, float]) -> str:
    """Aligned plain-text comparison table of ``evaluate_horizons``' document
    (one line per model, with its milliseconds per test example), with the
    per-horizon breakdown underneath."""
    lines = []
    header = f"{'Model':<14}{'Accuracy':>10}{'F1 (overall)':>14}{'F1 (rare)':>11}{'ms/example':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for rep in doc["models"]:
        lines.append(
            f"{rep['model']:<14}{rep['mean_accuracy']:>10.4f}{rep['mean_overall_f1']:>14.4f}"
            f"{rep['mean_rare_f1']:>11.4f}{seconds[rep['model']] * 1e3:>12.3f}"
        )
    lines.append("")
    for rep in doc["models"]:
        lines.append(f"{rep['model']} per horizon (accuracy / overall F1 / rare F1):")
        for r in rep["per_horizon"]:
            lines.append(f"  S={r['steps_ahead']}: {r['accuracy']:.4f} / {r['overall_f1']:.4f} / {r['rare_f1']:.4f}")
        lines.append(f"  pooled accuracy: {rep['pooled_accuracy']:.4f}")
    return "\n".join(lines) + "\n"
