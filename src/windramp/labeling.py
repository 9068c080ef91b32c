"""Ramp labeling and lag-feature dataset construction.

Turns a power series into per-horizon classification datasets: successive
differences over an S-step window, ramp classes against ordered thresholds,
and a feature row of the last L raw power values ending at each anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .series import WindPowerSeries


@dataclass(frozen=True)
class ThresholdSet:
    """Ordered ramp thresholds T_1 < ... < T_m (megawatts, all > 0).

    m thresholds induce 2(m+1) ramp classes: ids 1..m+1 cover the down side
    (1 = most severe down-ramp), ids m+2..2(m+1) the up side (highest id =
    most severe up-ramp).
    """

    thresholds_mw: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.thresholds_mw)
        if not ts:
            raise DataError("at least one threshold is required")
        if any(not math.isfinite(t) or t <= 0 for t in ts):
            raise DataError(f"thresholds must be finite and > 0, got {ts}")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise DataError(f"thresholds must be strictly increasing, got {ts}")
        object.__setattr__(self, "thresholds_mw", ts)

    @classmethod
    def from_fraction(cls, fraction: float, rated_capacity_mw: float) -> "ThresholdSet":
        """Single threshold at ``fraction`` of rated capacity (default setup: 0.5)."""
        if not (0 < fraction <= 1):
            raise DataError(f"threshold fraction must be in (0, 1], got {fraction}")
        return cls((fraction * rated_capacity_mw,))

    @property
    def num_classes(self) -> int:
        return 2 * (len(self.thresholds_mw) + 1)

    @property
    def rare_class_ids(self) -> tuple[int, ...]:
        """The severe extremes: lowest and highest class id."""
        return (1, self.num_classes)

    def boundaries(self) -> np.ndarray:
        """Class boundaries (-T_m, ..., -T_1, 0, T_1, ..., T_m) ascending."""
        t = np.asarray(self.thresholds_mw, dtype=np.float64)
        return np.concatenate([-t[::-1], [0.0], t])


@dataclass(frozen=True)
class RampClass:
    """One ramp class: contiguous id (1 = most severe down) and rarity flag."""

    id: int
    rare: bool


def ramp_classes(thresholds: ThresholdSet) -> tuple[RampClass, ...]:
    rare = set(thresholds.rare_class_ids)
    return tuple(RampClass(c, c in rare) for c in range(1, thresholds.num_classes + 1))


@dataclass(frozen=True)
class HorizonSpec:
    """Prediction horizon: S steps ahead, L lagged power values as features."""

    steps_ahead: int
    lag_count: int = 36

    def __post_init__(self):
        if self.steps_ahead < 1:
            raise DataError(f"steps_ahead must be >= 1, got {self.steps_ahead}")
        if self.lag_count < 1:
            raise DataError(f"lag_count must be >= 1, got {self.lag_count}")


@dataclass(frozen=True)
class LabeledDataset:
    """Lag-feature matrix plus ramp-class targets for one horizon.

    ``features[i]`` is (w(t-L+1), ..., w(t)) for anchor t; ``targets[i]`` is
    the class of w(t+S) - w(t). ``anchor_ts`` keeps each row's anchor
    timestamp so rows stay joinable with baseline predictions after
    splitting.
    """

    features: np.ndarray
    targets: np.ndarray
    horizon: HorizonSpec
    thresholds: ThresholdSet
    anchor_ts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.targets, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.horizon.lag_count:
            raise DataError(
                f"features must be n x {self.horizon.lag_count}, got shape {X.shape}"
            )
        if y.shape != (X.shape[0],):
            raise DataError("targets length must match feature rows")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain non-finite values")
        if y.size and (y.min() < 1 or y.max() > self.thresholds.num_classes):
            raise DataError(
                f"target ids must be in 1..{self.thresholds.num_classes}"
            )
        ts = self.anchor_ts
        ts = np.arange(X.shape[0], dtype=np.int64) if ts is None else np.ascontiguousarray(ts, dtype=np.int64)
        if ts.shape != (X.shape[0],):
            raise DataError("anchor_ts length must match feature rows")
        for arr in (X, y, ts):
            arr.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "anchor_ts", ts)

    def __len__(self) -> int:
        return int(self.targets.size)

    @property
    def num_classes(self) -> int:
        return self.thresholds.num_classes

    def select(self, rows: np.ndarray) -> "LabeledDataset":
        """New dataset restricted to the given row positions (order kept)."""
        return LabeledDataset(
            features=self.features[rows],
            targets=self.targets[rows],
            horizon=self.horizon,
            thresholds=self.thresholds,
            anchor_ts=self.anchor_ts[rows],
        )


def diff_series(series: WindPowerSeries, step: int = 1) -> list[tuple[int, float]]:
    """(timestamp, w(t) - w(t - step*dt)) pairs, never crossing a gap.

    Segments shorter than ``step`` contribute nothing (they are skipped, not
    an error).
    """
    if step < 1:
        raise DataError(f"step must be >= 1, got {step}")
    out: list[tuple[int, float]] = []
    for ts, pw in series.segments():
        if pw.size <= step:
            continue
        deltas = pw[step:] - pw[:-step]
        out.extend(zip((int(t) for t in ts[step:]), (float(d) for d in deltas)))
    return out


def assign_class(delta_mw: float, thresholds: ThresholdSet) -> int:
    """Ramp class id for one power change.

    With a single threshold T: 1 iff x < -T, 2 iff -T <= x < 0, 3 iff
    0 <= x < T, 4 iff x >= T. With m thresholds the same half-open
    convention applies interval-wise: a boundary value lands in the less
    severe class on the down side and the more severe class on the up side.
    """
    if not math.isfinite(delta_mw):
        raise DataError(f"non-finite power difference {delta_mw}")
    return int(np.searchsorted(thresholds.boundaries(), delta_mw, side="right")) + 1


def assign_classes(deltas: np.ndarray, thresholds: ThresholdSet) -> np.ndarray:
    """Vectorized assign_class; same boundary convention."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if not np.all(np.isfinite(deltas)):
        raise DataError("non-finite power difference")
    return np.searchsorted(thresholds.boundaries(), deltas, side="right").astype(np.int64) + 1


def build_dataset(
    series: WindPowerSeries,
    horizon: HorizonSpec,
    thresholds: ThresholdSet,
) -> LabeledDataset:
    """Assemble the S-step-ahead dataset for one horizon.

    For every anchor t with a full lag window behind it and S observed steps
    ahead of it (within a single segment), the feature row is the last L
    powers ending at t and the target is the class of w(t+S) - w(t). Rows
    never straddle segment gaps.
    """
    L, S = horizon.lag_count, horizon.steps_ahead
    feats: list[np.ndarray] = []
    targs: list[np.ndarray] = []
    anchors: list[np.ndarray] = []
    for ts, pw in series.segments():
        n = pw.size
        count = n - L - S + 1
        if count <= 0:
            continue
        # anchor indices L-1 .. n-S-1; row j of the window view starts at w(j)
        windows = np.lib.stride_tricks.sliding_window_view(pw, L)[:count]
        deltas = pw[L - 1 + S:] - pw[L - 1:n - S]
        feats.append(windows)
        targs.append(assign_classes(deltas, thresholds))
        anchors.append(ts[L - 1:n - S])
    if not feats:
        raise DataError(
            f"no segment is long enough for lag_count={L} and steps_ahead={S}"
        )
    return LabeledDataset(
        features=np.vstack(feats),
        targets=np.concatenate(targs),
        horizon=horizon,
        thresholds=thresholds,
        anchor_ts=np.concatenate(anchors),
    )


def class_distribution(dataset: LabeledDataset) -> dict[int, tuple[int, float]]:
    """Per-class (count, percentage) over all class ids, zeros included."""
    if len(dataset) == 0:
        raise DataError("empty dataset")
    n = len(dataset)
    counts = np.bincount(dataset.targets, minlength=dataset.num_classes + 1)[1:]
    return {
        c + 1: (int(counts[c]), 100.0 * counts[c] / n)
        for c in range(dataset.num_classes)
    }
