import numpy as np
import pytest

from windramp import (
    HorizonSpec,
    LabeledDataset,
    ThresholdSet,
    WindPowerSeries,
)


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


def make_dataset(features, targets, thresholds=None, steps_ahead=1):
    features = np.asarray(features, dtype=np.float64)
    thresholds = thresholds or ThresholdSet((10.0,))
    return LabeledDataset(
        features=features,
        targets=np.asarray(targets, dtype=np.int64),
        horizon=HorizonSpec(steps_ahead=steps_ahead, lag_count=features.shape[1]),
        thresholds=thresholds,
        anchor_ts=np.arange(features.shape[0]),
        observed=np.zeros(features.shape[0], dtype=np.int64),
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
