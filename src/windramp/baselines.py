"""Reference predictors: persistence and majority class.

Persistence predicts the class just observed, scored on a lag-window
dataset's own rows: for the row anchored at t it predicts the row's
``observed`` class, that of w(t) - w(t-S), against its target, the class of
w(t+S) - w(t).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .labeling import LabeledDataset


def persistence_predict(dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """(true, predicted) classes of persistence on the rows of ``dataset``.

    A row is kept only when it has an observed class (``observed > 0``), so
    no prediction reaches across a gap: with L-1 >= S every row is kept,
    otherwise the first S-(L-1) anchors of each segment are not scored.
    Rows keep the dataset's order.
    """
    keep = dataset.observed > 0
    return dataset.targets[keep], dataset.observed[keep]


def majority_predict(train_targets: np.ndarray, n_test: int) -> np.ndarray:
    """Constant prediction of the modal training class (ties -> lower id)."""
    train_targets = np.asarray(train_targets, dtype=np.int64)
    if train_targets.size == 0:
        raise DataError("empty training targets")
    counts = np.bincount(train_targets)
    modal = int(np.argmax(counts))  # first max = lowest id
    return np.full(n_test, modal, dtype=np.int64)
