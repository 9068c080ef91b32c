import json
import pickle
import tracemalloc

import numpy as np
import pytest

from windramp import (DataError, HorizonSpec, LabeledDataset, ThresholdSet, build_dataset, generate_series,
                      write_series)
from windramp.cli import main
from windramp.labeling import assign_classes, class_distribution

from .conftest import make_dataset, make_series
from .oracles import naive_class


def assign_one(delta, thresholds):
    """Class of a single power change, through a one-element array."""
    (cls,) = assign_classes(np.array([delta]), thresholds)
    return int(cls)


class TestAssignClass:
    def test_severe_down(self, single_threshold):
        assert assign_one(-12.0, single_threshold) == 1

    def test_mild_up(self, single_threshold):
        assert assign_one(3.0, single_threshold) == 3

    def test_boundaries(self, single_threshold):
        # half-open convention: -T -> 2, 0 -> 3, +T -> 4
        assert assign_one(-10.0, single_threshold) == 2
        assert assign_one(0.0, single_threshold) == 3
        assert assign_one(10.0, single_threshold) == 4

    def test_non_finite_rejected(self, single_threshold):
        with pytest.raises(DataError):
            assign_one(float("nan"), single_threshold)
        with pytest.raises(DataError):
            assign_one(float("inf"), single_threshold)

    def test_partition_dense_grid(self, single_threshold):
        # every finite x maps to exactly one class; grid includes -T, 0, +T
        grid = np.concatenate([
            np.linspace(-40, 40, 4001),
            [-10.0, 0.0, 10.0, -1e12, 1e12, np.nextafter(-10.0, 0), np.nextafter(10.0, np.inf)],
        ])
        classes = assign_classes(grid, single_threshold)
        assert classes.min() >= 1 and classes.max() <= 4
        scalar = np.array([naive_class(float(x), single_threshold.thresholds_mw) for x in grid])
        assert np.array_equal(classes, scalar)

    def test_monotone_in_x(self, single_threshold):
        grid = np.sort(np.concatenate([np.linspace(-30, 30, 2001), [-10.0, 0.0, 10.0]]))
        classes = assign_classes(grid, single_threshold)
        assert np.all(np.diff(classes) >= 0)

    def test_multi_threshold_classes(self):
        ts = ThresholdSet((5.0, 10.0))
        assert ts.num_classes == 6
        expected = {-12.0: 1, -10.0: 2, -7.0: 2, -5.0: 3, -1.0: 3, 0.0: 4, 4.9: 4,
                    5.0: 5, 9.9: 5, 10.0: 6, 11.0: 6}
        for x, want in expected.items():
            assert assign_one(x, ts) == want, x

    def test_multi_threshold_partition_monotone(self):
        ts = ThresholdSet((2.0, 5.0, 11.0))
        grid = np.sort(np.concatenate([
            np.linspace(-20, 20, 8001), [-11.0, -5.0, -2.0, 0.0, 2.0, 5.0, 11.0],
        ]))
        classes = assign_classes(grid, ts)
        assert classes.min() == 1 and classes.max() == ts.num_classes
        assert np.all(np.diff(classes) >= 0)
        assert set(np.unique(classes)) == set(range(1, ts.num_classes + 1))

    def test_thresholds_must_increase(self):
        with pytest.raises(DataError):
            ThresholdSet((10.0, 10.0))
        with pytest.raises(DataError):
            ThresholdSet((-1.0, 5.0))
        with pytest.raises(DataError):
            ThresholdSet(())

    def test_from_fraction(self):
        assert ThresholdSet.from_fraction(0.5, 20.0).thresholds_mw == (10.0,)
        assert ThresholdSet.from_fraction(0.5, 1090.0).thresholds_mw == (545.0,)
        with pytest.raises(DataError):
            ThresholdSet.from_fraction(0.0, 20.0)

    def test_rare_flags(self, single_threshold):
        assert single_threshold.rare_class_ids == (1, 4)
        assert ThresholdSet((5.0, 10.0)).rare_class_ids == (1, 6)


class TestBuildDataset:
    def test_row_count_single_segment(self, single_threshold):
        wps = make_series(np.linspace(1, 5, 10))
        ds = build_dataset(wps, HorizonSpec(steps_ahead=1, lag_count=3), single_threshold)
        assert len(ds) == 7

    def test_row_count_two_segments(self, single_threshold):
        wps = make_series(np.linspace(1, 3, 9), gaps_at=(5,))
        # segment lengths 5 and 4 with L=3, S=2 -> 1 + 0 rows
        ds = build_dataset(wps, HorizonSpec(steps_ahead=2, lag_count=3), single_threshold)
        assert len(ds) == 1

    def test_ramp_fixture_targets(self, single_threshold):
        wps = make_series([0.0, 0.0, 0.0, 11.0, 0.0])
        ds = build_dataset(wps, HorizonSpec(steps_ahead=1, lag_count=2), single_threshold)
        assert np.array_equal(ds.targets, [3, 4, 1])
        assert np.array_equal(ds.features, [[0.0, 0.0], [0.0, 0.0], [0.0, 11.0]])

    def test_feature_rows_are_trailing_window(self, single_threshold):
        powers = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        wps = make_series(powers)
        ds = build_dataset(wps, HorizonSpec(steps_ahead=2, lag_count=3), single_threshold)
        assert np.array_equal(ds.features, [[1, 2, 3], [2, 3, 4]])
        assert np.array_equal(ds.targets, assign_classes(powers[4:] - powers[2:4], single_threshold))

    def test_no_segment_long_enough(self, single_threshold):
        wps = make_series([1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="no segment"):
            build_dataset(wps, HorizonSpec(steps_ahead=2, lag_count=3), single_threshold)

    def test_no_leakage(self, single_threshold):
        wps = make_series(np.linspace(0, 19, 20), gaps_at=(11,))
        horizon = HorizonSpec(steps_ahead=3, lag_count=4)
        ds = build_dataset(wps, horizon, single_threshold)
        ts, pw = wps.timestamps, wps.powers
        by_ts = dict(zip(ts.tolist(), pw.tolist()))
        for row, anchor in zip(ds.features, ts[ds.starts + horizon.lag_count - 1]):
            # features are the L powers at and before the anchor
            for k, value in enumerate(reversed(row)):
                assert by_ts[int(anchor) - k * 600] == value

    def test_shift_invariance(self, single_threshold):
        rng = np.random.default_rng(0)
        base = rng.uniform(2, 12, size=40)
        horizon = HorizonSpec(steps_ahead=2, lag_count=3)
        ds1 = build_dataset(make_series(base, capacity=40.0), horizon, single_threshold)
        ds2 = build_dataset(make_series(base + 7.0, capacity=40.0), horizon, single_threshold)
        assert np.array_equal(ds1.targets, ds2.targets)

    def test_observed_matches_scalar_reference(self):
        # every n <= 15 and L, S <= 7, as one segment and split by a gap:
        # covers L-1 < S, segments shorter than 2S and segments with no row
        rng = np.random.default_rng(11)
        thresholds = ThresholdSet((2.0, 5.0))
        checked = 0
        for n in range(1, 16):
            powers = rng.uniform(0, 10, size=n)
            for gaps_at in ((), (n // 2,)) if n > 1 else ((),):
                wps = make_series(powers, gaps_at=gaps_at)
                for L in range(1, 8):
                    for S in range(1, 8):
                        want_targets, want_observed = [], []
                        for segment in np.split(powers, gaps_at):
                            for t in range(L - 1, segment.size - S):
                                want_targets.append(naive_class(segment[t + S] - segment[t], (2.0, 5.0)))
                                want_observed.append(naive_class(segment[t] - segment[t - S], (2.0, 5.0))
                                                     if t >= S else 0)
                        if not want_targets:
                            with pytest.raises(DataError, match="no segment"):
                                build_dataset(wps, HorizonSpec(S, L), thresholds)
                            continue
                        ds = build_dataset(wps, HorizonSpec(S, L), thresholds)
                        assert ds.targets.tolist() == want_targets
                        assert ds.observed.tolist() == want_observed
                        checked += 1
        assert checked > 400

    def test_observed_selected_with_its_rows(self, single_threshold):
        wps = make_series([0.0, 11.0, 0.0, 5.0, 16.0, 4.0, 4.0])
        ds = build_dataset(wps, HorizonSpec(steps_ahead=1, lag_count=1), single_threshold)
        assert ds.observed.tolist() == [0, 4, 1, 3, 4, 1]
        assert ds.select(np.array([5, 0, 2])).observed.tolist() == [1, 0, 1]
        assert not ds.observed.flags.writeable

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 15, size=40)
        horizon = HorizonSpec(steps_ahead=1, lag_count=2)
        ds1 = build_dataset(make_series(base, capacity=20.0), horizon, ThresholdSet((4.0,)))
        ds2 = build_dataset(make_series(base * 3.0, capacity=60.0), horizon, ThresholdSet((12.0,)))
        assert np.array_equal(ds1.targets, ds2.targets)


class TestLabeledDataset:
    @staticmethod
    def _fields(**edit):
        """Four rows of two lags over eight powers, with ``edit`` applied."""
        return {"powers": np.arange(8.0), "starts": 2 * np.arange(4), "targets": [1, 2, 3, 4],
                "horizon": HorizonSpec(1, 2), "thresholds": ThresholdSet((10.0,)),
                "observed": np.zeros(4, dtype=np.int64), **edit}

    def test_features_are_the_windows_at_starts(self):
        ds = LabeledDataset(**self._fields(starts=[6, 0, 3, 3]))
        assert ds.features.tolist() == [[6, 7], [0, 1], [3, 4], [3, 4]]
        assert not ds.powers.flags.writeable and not ds.starts.flags.writeable

    @pytest.mark.parametrize("edit, match", [
        ({"powers": np.zeros((4, 2))}, "powers must be 1-d"),
        ({"powers": np.array([0.0, 1.0, np.nan, 3.0, 4.0, 5.0, 6.0, 7.0])}, "non-finite"),
        ({"starts": [0, 2, 4, 7]}, "starts"),  # its window would end past the last power
        ({"starts": [-1, 2, 4, 6]}, "starts"),
        ({"starts": np.zeros((2, 2))}, "starts"),
        ({"targets": [1, 2, 3]}, "targets length"),
    ], ids=["powers_2d", "powers_nan", "start_past_end", "start_negative", "starts_2d", "targets_short"])
    def test_malformed_fields_rejected(self, edit, match):
        with pytest.raises(DataError, match=match):
            LabeledDataset(**self._fields(**edit))

    @pytest.mark.parametrize("observed", [[0, 1, 2], [0, 1, 2, 3, 4], [0, -1, 2, 3], [0, 1, 5, 3]],
                             ids=["short", "long", "negative", "above_num_classes"])
    def test_bad_observed_rejected(self, observed):
        with pytest.raises(DataError, match="observed"):
            LabeledDataset(**self._fields(observed=observed))


class TestClassDistribution:
    def test_counts_and_percentages(self):
        ds = make_dataset(np.zeros((4, 2)), [1, 2, 2, 3])
        dist = class_distribution(ds)
        assert {c: cnt for c, (cnt, _) in dist.items()} == {1: 1, 2: 2, 3: 1, 4: 0}
        assert {c: pct for c, (cnt, pct) in dist.items()} == {1: 25.0, 2: 50.0, 3: 25.0, 4: 0.0}
        assert abs(sum(pct for _, pct in dist.values()) - 100.0) < 0.01

    def test_site_13000_proportions(self):
        # class counts matching the 10-minute-difference distribution of the
        # larger onshore extract: rare fraction comes out near 5.06%
        counts = {1: 3611, 2: 83270, 3: 66685, 4: 4402}
        targets = np.repeat(list(counts), list(counts.values()))
        ds = make_dataset(np.zeros((targets.size, 1)), targets)
        dist = class_distribution(ds)
        rare_pct = dist[1][1] + dist[4][1]
        assert abs(rare_pct - 5.06) < 0.02
        assert abs(dist[2][1] - 52.71) < 0.01

    def test_degenerate_single_class(self):
        ds = make_dataset(np.zeros((5, 2)), [3] * 5)
        dist = class_distribution(ds)
        assert dist[3] == (5, 100.0)
        assert all(cnt == 0 for c, (cnt, _) in dist.items() if c != 3)


class TestNoWindowCopies:
    """A dataset and every part split from it index one shared series; no
    lag window is copied until rows are predicted."""

    def test_train_of_six_horizons_holds_no_lag_windows(self, tmp_path):
        """``train`` of horizons 1..6 (L=36) peaks under the bytes of two
        horizons' lag windows; six train parts of copied windows hold about
        five."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": 1, "hyperparams": {"n_estimators": 1, "max_depth": 1}}))

        def train(points):
            csv = tmp_path / f"series_{points}.csv"
            write_series(generate_series(points, seed=2), csv)
            return main(["train", "--config", str(config), "--data", str(csv), "--capacity-mw", "20",
                         "--out", str(tmp_path / f"out_{points}")])

        assert train(400) == 0  # numpy imports some modules on first use: leave them out of the peak
        points = 20_000
        tracemalloc.start()
        try:
            assert train(points) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (points - 36) * 36 * 8

    def test_select_shares_powers(self):
        wps = generate_series(3000, seed=1)
        ds = build_dataset(wps, HorizonSpec(6, 36), ThresholdSet.from_fraction(0.5, 20.0))
        part = ds.select(np.arange(0, len(ds), 3))
        assert np.shares_memory(ds.powers, wps.powers) and np.shares_memory(part.powers, ds.powers)
        assert np.array_equal(part.features, ds.features[::3])
        # what a worker pool pickles into each job: the series and the per-row arrays, not the windows
        assert len(pickle.dumps(part)) < part.features.nbytes / 4
