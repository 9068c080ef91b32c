import numpy as np
import pytest

from windramp import (
    HorizonSpec,
    LabeledDataset,
    ThresholdSet,
    WindPowerSeries,
)
from windramp.gbrt import Tree, grow_tree


@pytest.fixture
def single_threshold():
    return ThresholdSet((10.0,))


@pytest.fixture
def tiny_series():
    """One segment, stride 600, powers well inside a 20 MW capacity."""
    powers = np.array([5.0, 15.0, 12.0, 0.0, 11.0, 0.0, 3.0, 9.0], dtype=np.float64)
    ts = 600 * np.arange(1, len(powers) + 1, dtype=np.int64)
    return WindPowerSeries(timestamps=ts, powers=powers, resolution_s=600, rated_capacity_mw=20.0)


def make_series(powers, resolution_s=600, capacity=20.0, gaps_at=()):
    """Series from raw powers; ``gaps_at`` lists indices whose timestamp is
    shifted to start a new segment, which the series must find."""
    powers = np.asarray(powers, dtype=np.float64)
    ts = np.zeros(powers.size, dtype=np.int64)
    t = resolution_s
    for i in range(powers.size):
        if i in gaps_at:
            t += 2 * resolution_s
        ts[i] = t
        t += resolution_s
    bounds = []
    start = 0
    for i in sorted(gaps_at):
        bounds.append((start, i))
        start = i
    bounds.append((start, powers.size))
    wps = WindPowerSeries(timestamps=ts, powers=powers, resolution_s=resolution_s, rated_capacity_mw=capacity)
    assert wps.segment_bounds == tuple(bounds)
    return wps


def window_rows(X):
    """``(powers, starts, lag_count)`` whose lag windows are the rows of the
    n x F matrix X: ``powers=X.ravel()``, ``starts=F*arange(n)``."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    return X.ravel(), X.shape[1] * np.arange(X.shape[0]), X.shape[1]


def make_dataset(features, targets, thresholds=None, steps_ahead=1):
    powers, starts, lag_count = window_rows(features)
    thresholds = thresholds or ThresholdSet((10.0,))
    return LabeledDataset(
        powers=powers,
        starts=starts,
        targets=np.asarray(targets, dtype=np.int64),
        horizon=HorizonSpec(steps_ahead=steps_ahead, lag_count=lag_count),
        thresholds=thresholds,
        anchor_ts=np.arange(starts.size),
        observed=np.zeros(starts.size, dtype=np.int64),
    )


def quadrant_dataset(n=40, seed=7, scale=5.0):
    """Separable toy set: class = quadrant of a 2-feature point."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-scale, scale, size=(n, 2))
    X[np.abs(X) < 0.25] += 0.5  # keep points off the axes
    targets = np.where(
        X[:, 0] > 0,
        np.where(X[:, 1] > 0, 1, 2),
        np.where(X[:, 1] > 0, 3, 4),
    )
    return make_dataset(X, targets)


def grown_tree(bins, edges, counts, g, h, params):
    """``(tree, values)``: one tree grown into fresh rows, and the leaf
    weight of each training row. The rows start out stale, as ``train``'s
    unset rows may: grow_tree must write every slot."""
    slots = 2**params.max_depth
    tree = Tree(np.zeros(slots - 1, dtype=np.int32), np.full(slots - 1, np.nan), np.full(slots, np.nan))
    values = np.full(bins.shape[1], np.nan)
    grow_tree(bins, edges, counts, g, h, params, tree, values)
    return tree, values


def tree_depth(tree):
    """The depth of a tree's layout cut below its deepest split (0 for a leaf)."""
    splits = np.flatnonzero(tree.feature >= 0)
    return int(splits[-1] + 1).bit_length() if splits.size else 0
