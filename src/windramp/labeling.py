"""Ramp labeling and lag-feature dataset construction.

Turns a power series into per-horizon classification datasets: the power
change over an S-step window, its ramp class against ordered thresholds,
and a feature row of the last L raw power values ending at each anchor.
A dataset stores no feature matrix: it holds the series' powers, shared by
every horizon and every part of a split, and the index where each row's
window starts in them; the rows are gathered only where they are predicted.
Each row also carries the class persistence predicts, so only this module
decides which anchors have an observation S steps back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Ramp-class targets for one horizon, on rows of one shared series.

    ``powers`` is the whole series, shared read-only by every horizon and
    part, and ``starts[i]`` is where row i's lag window begins in it:
    ``features[i]`` is powers[starts[i] : starts[i]+L], (w(t-L+1), ..., w(t))
    for anchor t. ``targets[i]`` is the class of w(t+S) - w(t).
    ``observed[i]`` is the class of w(t) - w(t-S), or 0 when t-S lies before
    the anchor's segment. A row built from a series has the anchor time
    ``timestamps[starts[i] + L - 1]``; the dataset keeps no timestamps. Any
    n x F matrix X is ``powers=X.ravel()`` and ``starts=F*arange(n)``.
    """

    powers: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    horizon: HorizonSpec
    thresholds: ThresholdSet
    observed: np.ndarray

    def __post_init__(self):
        L = self.horizon.lag_count
        powers = np.ascontiguousarray(self.powers, dtype=np.float64)
        starts = np.ascontiguousarray(self.starts, dtype=np.int64)
        y = np.ascontiguousarray(self.targets, dtype=np.int64)
        if powers.ndim != 1:
            raise DataError(f"powers must be 1-d, got shape {powers.shape}")
        if not np.all(np.isfinite(powers)):
            raise DataError("powers contain non-finite values")
        if starts.ndim != 1 or (starts.size and (starts.min() < 0 or starts.max() > powers.size - L)):
            raise DataError(f"starts must be a 1-d array of window starts in 0..{powers.size - L}")
        if y.shape != starts.shape:
            raise DataError("targets length must match starts")
        if y.size and (y.min() < 1 or y.max() > self.thresholds.num_classes):
            raise DataError(
                f"target ids must be in 1..{self.thresholds.num_classes}"
            )
        seen = np.ascontiguousarray(self.observed, dtype=np.int64)
        if seen.shape != y.shape or (seen.size and (seen.min() < 0 or seen.max() > self.thresholds.num_classes)):
            raise DataError(f"observed must hold one id in 0..{self.thresholds.num_classes} per row")
        for name, arr in (("powers", powers), ("starts", starts), ("targets", y), ("observed", seen)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.targets.size)

    @property
    def num_classes(self) -> int:
        return self.thresholds.num_classes

    @property
    def features(self) -> np.ndarray:
        """The n x L lag windows, gathered anew from ``powers`` at each call."""
        return np.lib.stride_tricks.sliding_window_view(self.powers, self.horizon.lag_count)[self.starts]

    def select(self, rows: np.ndarray) -> "LabeledDataset":
        """New dataset restricted to the given row positions (order kept),
        sharing ``powers``: only the per-row arrays are copied."""
        return LabeledDataset(
            powers=self.powers,
            starts=self.starts[rows],
            targets=self.targets[rows],
            horizon=self.horizon,
            thresholds=self.thresholds,
            observed=self.observed[rows],
        )


def assign_classes(deltas: np.ndarray, thresholds: ThresholdSet) -> np.ndarray:
    """Ramp class id of each power change.

    With a single threshold T: 1 iff x < -T, 2 iff -T <= x < 0, 3 iff
    0 <= x < T, 4 iff x >= T. With m thresholds the same half-open
    convention applies interval-wise: a boundary value lands in the less
    severe class on the down side and the more severe class on the up side.
    """
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
    ahead of it (within a single segment of ``segment_bounds``), the row's
    window starts L-1 steps before t in the series' own ``powers``, which
    every row shares, and the target is the class of w(t+S) - w(t). Rows
    never straddle segment gaps, so no window holds points of two segments.
    The dataset keeps no timestamps. Each segment's S-step
    changes are classed once: the row at t takes ``change[t]`` as its target
    and ``change[t-S]`` as its observed class, 0 for the first S-(L-1)
    anchors when L-1 < S.
    """
    L, S = horizon.lag_count, horizon.steps_ahead
    parts = []  # per segment: (window starts, targets, observed classes)
    for first, stop in series.segment_bounds:
        pw = series.powers[first:stop]
        n = pw.size
        count = n - L - S + 1
        if count <= 0:
            continue
        # anchor indices L-1 .. n-S-1; the window of the anchor at L-1+j starts at w(j)
        change = assign_classes(pw[S:] - pw[:n - S], thresholds)
        back = np.arange(L - 1 - S, n - 2 * S)  # t-S for each anchor t; a slice would wrap when n < 2S
        parts.append((first + np.arange(count), change[L - 1:], np.where(back >= 0, change[back.clip(0)], 0)))
    if not parts:
        raise DataError(
            f"no segment is long enough for lag_count={L} and steps_ahead={S}"
        )
    starts, targets, observed = (np.concatenate(arrays) for arrays in zip(*parts))
    return LabeledDataset(powers=series.powers, starts=starts, targets=targets, horizon=horizon,
                          thresholds=thresholds, observed=observed)


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
