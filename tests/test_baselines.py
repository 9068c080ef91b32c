import numpy as np
import pytest

from windramp import DataError, HorizonSpec, ThresholdSet, build_dataset
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


class TestPersistence:
    def test_constant_series_perfect(self, single_threshold):
        wps = make_series([7.0] * 12)
        horizon = HorizonSpec(steps_ahead=1, lag_count=2)
        result = persistence_predict(wps, horizon, single_threshold)
        assert np.all(result.true == 3)
        assert np.all(result.predicted == 3)
        cm = confusion(result.true, result.predicted, 4)
        report = metrics(cm, (1, 4))
        assert report.accuracy == 1.0
        assert report.rare_f1 == 0.0  # no rare events exist; convention value

    def test_alternating_severe_always_wrong(self, single_threshold):
        # deltas alternate +/-11: persistence repeats the previous class and
        # is wrong about every severe event
        powers = np.array([0.0, 11.0] * 4)
        wps = make_series(powers)
        horizon = HorizonSpec(steps_ahead=1, lag_count=1)
        result = persistence_predict(wps, horizon, single_threshold)
        assert set(np.unique(result.true)) == {1, 4}
        assert np.all(result.true != result.predicted)
        report = metrics(confusion(result.true, result.predicted, 4), (1, 4))
        assert report.per_class[1].recall == 0.0
        assert report.per_class[4].recall == 0.0
        assert report.rare_f1 == 0.0

    def test_hand_trace_eight_points(self, single_threshold):
        powers = np.array([0.0, 11.0, 0.0, 11.0, 0.0, 11.0, 0.0, 11.0])
        wps = make_series(powers)
        result = persistence_predict(wps, HorizonSpec(steps_ahead=1, lag_count=1), single_threshold)
        # anchors t=1..6; true = class of delta ending t+1, pred = delta ending t
        assert np.array_equal(result.true, [1, 4, 1, 4, 1, 4])
        assert np.array_equal(result.predicted, [4, 1, 4, 1, 4, 1])

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("lag_count", [1, 4, 8])
    def test_matches_naive_script_on_random_walk(self, steps, lag_count, single_threshold):
        rng = np.random.default_rng(steps * 10 + lag_count)
        walk = np.clip(np.cumsum(rng.normal(0, 6.0, size=300)) + 50, 0, 100)
        wps = make_series(walk, capacity=100.0)
        horizon = HorizonSpec(steps_ahead=steps, lag_count=lag_count)
        result = persistence_predict(wps, horizon, single_threshold)
        true, pred = naive_persistence(walk.tolist(), lag_count, steps, 10.0)
        assert np.array_equal(result.true, true)
        assert np.array_equal(result.predicted, pred)
        acc = metrics(confusion(result.true, result.predicted, 4), (1, 4)).accuracy
        assert 0.0 < acc < 1.0

    def test_alignment_with_build_dataset(self, single_threshold):
        rng = np.random.default_rng(3)
        walk = np.clip(np.cumsum(rng.normal(0, 4.0, size=120)) + 40, 0, 80)
        wps = make_series(walk, capacity=80.0)
        for steps, lag_count in [(1, 8), (2, 8), (6, 3)]:
            horizon = HorizonSpec(steps_ahead=steps, lag_count=lag_count)
            ds = build_dataset(wps, horizon, single_threshold)
            result = persistence_predict(wps, horizon, single_threshold)
            # persistence never has more anchors, and misses at most S per segment
            assert len(ds) - result.anchor_ts.size <= steps
            # overlapping anchors carry identical true classes
            common = np.isin(ds.anchor_ts, result.anchor_ts)
            assert np.array_equal(ds.targets[common], result.true)

    def test_restrict_to_anchor_subset(self, single_threshold):
        wps = make_series(np.linspace(0, 19, 20))
        result = persistence_predict(wps, HorizonSpec(steps_ahead=1, lag_count=2), single_threshold)
        subset = result.anchor_ts[::2]
        restricted = result.restrict(subset)
        assert np.array_equal(restricted.anchor_ts, subset)
        assert restricted.true.size == subset.size

    def test_too_short_series(self, single_threshold):
        wps = make_series([1.0, 2.0])
        with pytest.raises(DataError, match="no segment"):
            persistence_predict(wps, HorizonSpec(steps_ahead=2, lag_count=2), single_threshold)


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
