import numpy as np
import pytest

from windramp import (
    DataError,
    HorizonSpec,
    HyperParams,
    build_dataset,
    evaluate_horizons,
    train,
)
from windramp.baselines import majority_predict, persistence_predict
from windramp.evaluation import confusion, metrics

from .conftest import make_series


def naive_persistence(powers, lag_count, steps, threshold):
    """Two-pass scalar reference: classify every S-step delta, then pair each
    anchor's upcoming class with the previous one."""
    def classify(x):
        if x < -threshold:
            return 1
        if x < 0:
            return 2
        if x < threshold:
            return 3
        return 4

    deltas = {}
    for t in range(steps, len(powers)):
        deltas[t] = classify(powers[t] - powers[t - steps])
    true, pred = [], []
    start = max(lag_count - 1, steps)
    for t in range(start, len(powers) - steps):
        true.append(deltas[t + steps])
        pred.append(deltas[t])
    return true, pred


def score_persistence(wps, steps, lag_count, thresholds):
    """Persistence on every row of the (steps, lag_count) dataset of ``wps``."""
    horizon = HorizonSpec(steps_ahead=steps, lag_count=lag_count)
    return persistence_predict(build_dataset(wps, horizon, thresholds))


class TestPersistence:
    def test_constant_series_perfect(self, single_threshold):
        wps = make_series([7.0] * 12)
        true, pred = score_persistence(wps, 1, 2, single_threshold)
        assert np.all(true == 3)
        assert np.all(pred == 3)
        report = metrics(confusion(true, pred, 4), (1, 4))
        assert report.accuracy == 1.0
        assert report.rare_f1 == 0.0  # no rare events exist; convention value

    def test_alternating_severe_always_wrong(self, single_threshold):
        # deltas alternate +/-11: persistence repeats the previous class and
        # is wrong about every severe event
        powers = np.array([0.0, 11.0] * 4)
        wps = make_series(powers)
        true, pred = score_persistence(wps, 1, 1, single_threshold)
        assert set(np.unique(true)) == {1, 4}
        assert np.all(true != pred)
        report = metrics(confusion(true, pred, 4), (1, 4))
        assert report.recall[0] == 0.0
        assert report.recall[3] == 0.0
        assert report.rare_f1 == 0.0

    def test_hand_trace_eight_points(self, single_threshold):
        powers = np.array([0.0, 11.0, 0.0, 11.0, 0.0, 11.0, 0.0, 11.0])
        wps = make_series(powers)
        true, pred = score_persistence(wps, 1, 1, single_threshold)
        # anchors t=1..6; true = class of delta ending t+1, pred = delta ending t
        assert np.array_equal(true, [1, 4, 1, 4, 1, 4])
        assert np.array_equal(pred, [4, 1, 4, 1, 4, 1])

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("lag_count", [1, 4, 8])
    def test_matches_naive_script_on_random_walk(self, steps, lag_count, single_threshold):
        rng = np.random.default_rng(steps * 10 + lag_count)
        walk = np.clip(np.cumsum(rng.normal(0, 6.0, size=300)) + 50, 0, 100)
        wps = make_series(walk, capacity=100.0)
        true, pred = score_persistence(wps, steps, lag_count, single_threshold)
        want_true, want_pred = naive_persistence(walk.tolist(), lag_count, steps, 10.0)
        assert np.array_equal(true, want_true)
        assert np.array_equal(pred, want_pred)
        acc = metrics(confusion(true, pred, 4), (1, 4)).accuracy
        assert 0.0 < acc < 1.0

    def test_alignment_with_build_dataset(self, single_threshold):
        rng = np.random.default_rng(3)
        walk = np.clip(np.cumsum(rng.normal(0, 4.0, size=120)) + 40, 0, 80)
        wps = make_series(walk, capacity=80.0)
        for steps, lag_count in [(1, 8), (2, 8), (6, 3)]:
            ds = build_dataset(wps, HorizonSpec(steps_ahead=steps, lag_count=lag_count), single_threshold)
            true, _ = persistence_predict(ds)
            # only the first S-(L-1) anchors lack an observation S steps back
            unscored = max(0, steps - (lag_count - 1))
            assert np.array_equal(true, ds.targets[unscored:])

    @pytest.mark.parametrize("steps, lag_count", [(1, 8), (6, 3), (3, 1)])
    def test_gapped_series_matches_naive_per_segment(self, steps, lag_count, single_threshold):
        rng = np.random.default_rng(steps * 10 + lag_count)
        walk = np.clip(np.cumsum(rng.normal(0, 6.0, size=150)) + 50, 0, 100)
        gaps_at = (40, 95)
        wps = make_series(walk, capacity=100.0, gaps_at=gaps_at)
        true, pred = score_persistence(wps, steps, lag_count, single_threshold)
        want_true, want_pred = [], []
        for segment in np.split(walk, gaps_at):
            seg_true, seg_pred = naive_persistence(segment.tolist(), lag_count, steps, 10.0)
            want_true += seg_true
            want_pred += seg_pred
        assert np.array_equal(true, want_true)
        assert np.array_equal(pred, want_pred)

    def test_restrict_to_anchor_subset(self, single_threshold):
        wps = make_series(np.linspace(0, 19, 20))
        ds = build_dataset(wps, HorizonSpec(steps_ahead=1, lag_count=2), single_threshold)
        full_true, full_pred = persistence_predict(ds)
        subset = ds.select(np.arange(0, len(ds), 2))
        true, pred = persistence_predict(subset)
        assert np.array_equal(true, subset.targets)
        assert np.array_equal(pred, full_pred[::2])

    def test_too_short_series(self, single_threshold):
        # three 4-point segments, S=2, L=1: each segment's two anchors sit
        # fewer than S steps from its start, so persistence scores no row
        wps = make_series([5.0, 1.0, 9.0, 0.0] * 3, gaps_at=(4, 8))
        ds = build_dataset(wps, HorizonSpec(steps_ahead=2, lag_count=1), single_threshold)
        assert len(ds) == 6
        true, pred = persistence_predict(ds)
        assert true.size == pred.size == 0
        model = train(ds, HyperParams(n_estimators=1, max_depth=1))
        with pytest.raises(DataError, match="empty"):
            evaluate_horizons([(model, ds, ds)])


class TestMajority:
    def test_modal_class(self):
        targets = np.repeat([2, 3], [60, 40])
        assert np.all(majority_predict(targets, 5) == 2)

    def test_site_13000_floor(self):
        # identically distributed train/test: constant class-2 prediction
        # scores exactly the class-2 share, about 0.527
        counts = {1: 3611, 2: 83270, 3: 66685, 4: 4402}
        targets = np.repeat(list(counts), list(counts.values()))
        pred = majority_predict(targets, targets.size)
        assert pred[0] == 2
        report = metrics(confusion(targets, pred, 4), (1, 4))
        assert report.accuracy == pytest.approx(0.5271, abs=5e-4)
        assert report.rare_f1 == 0.0

    def test_tie_breaks_to_lower_id(self):
        assert majority_predict(np.array([2, 3, 2, 3]), 3)[0] == 2

    def test_empty_targets_rejected(self):
        with pytest.raises(DataError):
            majority_predict(np.array([], dtype=np.int64), 2)

    def test_rare_f1_zero_when_modal_not_rare(self):
        rng = np.random.default_rng(1)
        targets = rng.choice([1, 2, 3, 4], p=[0.02, 0.55, 0.4, 0.03], size=500)
        pred = majority_predict(targets, targets.size)
        report = metrics(confusion(targets, pred, 4), (1, 4))
        assert report.rare_f1 == 0.0
