"""Synthetic wind-power series for fixtures and benchmarks.

Regime-switching generator: calm stretches of mean-reverting noise around
mid capacity, interrupted by storms that oscillate between a low and a high
plateau with severe single-step ramps in between. Plateau dwell times are
longer than the largest prediction horizon, so every injected ramp is
visible as a severe class at horizons 1..6, and the bounded power range
makes ramp direction learnable from recent levels.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import DataError
from .series import WindPowerSeries

RESOLUTION_S = 600
# Per-step probability of a storm starting during a calm stretch: roughly 1.5%
# of steps then carry an injected severe ramp (about half of rated capacity in
# one step), the order of magnitude of rare-event fractions in real site data.
STORM_RATE = 0.004
PLATEAU_STEPS = (7, 11)  # dwell on each storm plateau, inclusive range
STORM_CYCLES = (2, 5)  # low/high plateau cycles per storm, inclusive range
CALM_SIGMA = 0.02
PLATEAU_SIGMA = 0.015


def _levels(rng: np.random.Generator):
    """Unclipped levels, one per step and without end, drawing from ``rng``
    step by step: a series' first n levels never depend on its length."""
    mid, low, high = 0.5, 0.10, 0.90
    x = mid
    while True:
        if rng.random() < STORM_RATE:
            cycles = int(rng.integers(STORM_CYCLES[0], STORM_CYCLES[1] + 1))
            # approach the low plateau gently (a mild ramp, not a severe one)
            for target in (0.30, low):
                yield target + PLATEAU_SIGMA * rng.standard_normal()
            for _ in range(cycles):
                for plateau in (high, low):
                    dwell = int(rng.integers(PLATEAU_STEPS[0], PLATEAU_STEPS[1] + 1))
                    # a severe single-step jump onto the plateau, then dwell - 1 steps on it
                    for _ in range(dwell):
                        yield plateau + PLATEAU_SIGMA * rng.standard_normal()
            # leave the storm with two mild steps back toward mid
            for target in (0.30, mid):
                x = target + CALM_SIGMA * rng.standard_normal()
                yield x
        else:
            x = x + 0.3 * (mid - x) + CALM_SIGMA * rng.standard_normal()
            yield x


def generate_series(n_points: int, *, rated_capacity_mw: float = 20.0, seed: int = 0) -> WindPowerSeries:
    """Generate one contiguous synthetic series of ``n_points`` 10-minute steps."""
    if n_points < 2:
        raise DataError(f"n_points must be >= 2, got {n_points}")
    level = np.fromiter(islice(_levels(np.random.default_rng(seed)), n_points), dtype=np.float64, count=n_points)
    np.clip(level, 0.02, 0.98, out=level)
    return WindPowerSeries(
        timestamps=RESOLUTION_S + RESOLUTION_S * np.arange(n_points, dtype=np.int64),
        powers=rated_capacity_mw * level,
        resolution_s=RESOLUTION_S,
        rated_capacity_mw=rated_capacity_mw,
    )
