"""Synthetic wind-power series for fixtures and benchmarks.

Regime-switching generator: calm stretches of mean-reverting noise around
mid capacity, interrupted by storms that oscillate between a low and a high
plateau with severe single-step ramps in between. Plateau dwell times are
longer than the largest prediction horizon, so every injected ramp is
visible as a severe class at horizons 1..6, and the bounded power range
makes ramp direction learnable from recent levels.
"""

from __future__ import annotations

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


def generate_series(n_points: int, *, rated_capacity_mw: float = 20.0, seed: int = 0) -> WindPowerSeries:
    """Generate one contiguous synthetic series of ``n_points`` 10-minute steps."""
    if n_points < 2:
        raise DataError(f"n_points must be >= 2, got {n_points}")
    rng = np.random.default_rng(seed)
    cap = rated_capacity_mw
    mid, low, high = 0.5, 0.10, 0.90

    level = np.empty(n_points, dtype=np.float64)
    x = mid
    i = 0
    while i < n_points:
        if rng.random() < STORM_RATE:
            cycles = int(rng.integers(STORM_CYCLES[0], STORM_CYCLES[1] + 1))
            # approach the low plateau gently (a mild ramp, not a severe one)
            for target in (0.30, low):
                if i >= n_points:
                    break
                x = target + PLATEAU_SIGMA * rng.standard_normal()
                level[i] = x
                i += 1
            for c in range(cycles):
                for plateau in (high, low):
                    dwell = int(rng.integers(PLATEAU_STEPS[0], PLATEAU_STEPS[1] + 1))
                    if i >= n_points:
                        break
                    # severe single-step jump onto the plateau
                    x = plateau + PLATEAU_SIGMA * rng.standard_normal()
                    level[i] = x
                    i += 1
                    for _ in range(dwell - 1):
                        if i >= n_points:
                            break
                        x = plateau + PLATEAU_SIGMA * rng.standard_normal()
                        level[i] = x
                        i += 1
            # leave the storm with two mild steps back toward mid
            for target in (0.30, mid):
                if i >= n_points:
                    break
                x = target + CALM_SIGMA * rng.standard_normal()
                level[i] = x
                i += 1
        else:
            x = x + 0.3 * (mid - x) + CALM_SIGMA * rng.standard_normal()
            level[i] = x
            i += 1

    np.clip(level, 0.02, 0.98, out=level)
    powers = cap * level
    timestamps = RESOLUTION_S + RESOLUTION_S * np.arange(n_points, dtype=np.int64)
    return WindPowerSeries(
        timestamps=timestamps,
        powers=powers,
        resolution_s=RESOLUTION_S,
        rated_capacity_mw=rated_capacity_mw,
    )
