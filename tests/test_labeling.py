import numpy as np
import pytest

from windramp import (
    DataError,
    HorizonSpec,
    ThresholdSet,
    assign_class,
    assign_classes,
    build_dataset,
    class_distribution,
    diff_series,
    ramp_classes,
)

from .conftest import make_dataset, make_series


class TestDiffSeries:
    def test_step_one(self):
        wps = make_series([5.0, 15.0, 12.0])
        assert [d for _, d in diff_series(wps, 1)] == [10.0, -3.0]

    def test_step_two(self):
        wps = make_series([5.0, 15.0, 12.0])
        assert [d for _, d in diff_series(wps, 2)] == [7.0]

    def test_constant_series_all_zero(self):
        wps = make_series([4.0] * 6)
        for step in (1, 2, 3):
            assert all(d == 0.0 for _, d in diff_series(wps, step))

    def test_never_crosses_gap(self):
        wps = make_series([1.0, 2.0, 8.0, 9.0], gaps_at=(2,))
        diffs = diff_series(wps, 1)
        assert [d for _, d in diffs] == [1.0, 1.0]

    def test_short_segment_skipped(self):
        wps = make_series([1.0, 2.0, 8.0], gaps_at=(2,))
        assert len(diff_series(wps, 2)) == 0

    def test_lengths_per_segment(self):
        wps = make_series(np.arange(12, dtype=float), gaps_at=(7,))
        # segment lengths 7 and 5, step 2 -> 5 + 3
        assert len(diff_series(wps, 2)) == 8


class TestAssignClass:
    def test_severe_down(self, single_threshold):
        assert assign_class(-12.0, single_threshold) == 1

    def test_mild_up(self, single_threshold):
        assert assign_class(3.0, single_threshold) == 3

    def test_boundaries(self, single_threshold):
        # half-open convention: -T -> 2, 0 -> 3, +T -> 4
        assert assign_class(-10.0, single_threshold) == 2
        assert assign_class(0.0, single_threshold) == 3
        assert assign_class(10.0, single_threshold) == 4

    def test_non_finite_rejected(self, single_threshold):
        with pytest.raises(DataError):
            assign_class(float("nan"), single_threshold)
        with pytest.raises(DataError):
            assign_class(float("inf"), single_threshold)

    def test_partition_dense_grid(self, single_threshold):
        # every finite x maps to exactly one class; grid includes -T, 0, +T
        grid = np.concatenate([
            np.linspace(-40, 40, 4001),
            [-10.0, 0.0, 10.0, -1e12, 1e12, np.nextafter(-10.0, 0), np.nextafter(10.0, np.inf)],
        ])
        classes = assign_classes(grid, single_threshold)
        assert classes.min() >= 1 and classes.max() <= 4
        scalar = np.array([assign_class(float(x), single_threshold) for x in grid])
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
            assert assign_class(x, ts) == want, x

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
        classes = ramp_classes(single_threshold)
        assert [c.rare for c in classes] == [True, False, False, True]
        six = ramp_classes(ThresholdSet((5.0, 10.0)))
        assert [c.id for c in six if c.rare] == [1, 6]


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
        for row, anchor in zip(ds.features, ds.anchor_ts):
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

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 15, size=40)
        horizon = HorizonSpec(steps_ahead=1, lag_count=2)
        ds1 = build_dataset(make_series(base, capacity=20.0), horizon, ThresholdSet((4.0,)))
        ds2 = build_dataset(make_series(base * 3.0, capacity=60.0), horizon, ThresholdSet((12.0,)))
        assert np.array_equal(ds1.targets, ds2.targets)


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
