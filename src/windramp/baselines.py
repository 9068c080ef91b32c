"""Reference predictors: persistence and majority class.

Persistence predicts the class just observed, scored on a lag-window
dataset's own rows: for the row anchored at t it predicts the class of
w(t) - w(t-S), against the row's target, the class of w(t+S) - w(t).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .labeling import LabeledDataset, assign_classes
from .series import WindPowerSeries


def persistence_predict(
    series: WindPowerSeries, dataset: LabeledDataset
) -> tuple[np.ndarray, np.ndarray]:
    """(true, predicted) classes of persistence on the rows of ``dataset``.

    Each anchor is looked up in the series' ascending timestamps; an anchor
    the series does not hold is a DataError. A row is kept only when the
    point S steps back sits exactly S strides earlier, so no prediction
    reaches across a gap: with L-1 >= S every row is kept, otherwise the
    first S-(L-1) anchors of each segment are not scored. Rows keep the
    dataset's order.
    """
    ts, anchors = series.timestamps, dataset.anchor_ts
    S = dataset.horizon.steps_ahead
    at = np.minimum(np.searchsorted(ts, anchors), ts.size - 1)
    missing = ts[at] != anchors
    if np.any(missing):
        raise DataError(f"dataset anchor {int(anchors[missing][0])} is not a timestamp of the series")
    back = at - S
    keep = (back >= 0) & (ts[back.clip(0)] == anchors - S * series.resolution_s)
    deltas = series.powers[at[keep]] - series.powers[back[keep]]
    return dataset.targets[keep], assign_classes(deltas, dataset.thresholds)


def majority_predict(train_targets: np.ndarray, n_test: int) -> np.ndarray:
    """Constant prediction of the modal training class (ties -> lower id)."""
    train_targets = np.asarray(train_targets, dtype=np.int64)
    if train_targets.size == 0:
        raise DataError("empty training targets")
    counts = np.bincount(train_targets)
    modal = int(np.argmax(counts))  # first max = lowest id
    return np.full(n_test, modal, dtype=np.int64)
