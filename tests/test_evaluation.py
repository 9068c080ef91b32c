import hashlib
import json

import numpy as np
import pytest

from windramp import (
    DataError,
    HorizonSpec,
    HyperParams,
    ParamGrid,
    ThresholdSet,
    build_dataset,
    evaluate_horizons,
    fit_horizons,
    generate_series,
    stratified_split,
    train,
)
from windramp.baselines import majority_predict, persistence_predict
from windramp.evaluation import confusion, metrics, stratified_folds
from windramp.gbrt import serialize_model

from .conftest import make_dataset
from .oracles import naive_metrics


class TestConfusion:
    def test_basic_entries(self):
        counts = confusion([1, 2], [1, 3], num_classes=4)
        assert counts[0, 0] == 1
        assert counts[1, 2] == 1
        assert counts.sum() == 2
        assert counts.dtype == np.int64 and not counts.flags.writeable

    def test_perfect_prediction_diagonal(self):
        true = [1, 2, 3, 4, 2, 3]
        counts = confusion(true, true, num_classes=4)
        assert np.array_equal(counts, np.diag([1, 2, 2, 1]))

    def test_empty_inputs(self):
        counts = confusion([], [], num_classes=4)
        assert counts.sum() == 0
        assert np.array_equal(counts, np.zeros((4, 4), dtype=np.int64))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion([1, 2], [1], num_classes=4)

    def test_unknown_class_id(self):
        with pytest.raises(DataError, match="unknown class"):
            confusion([1, 5], [1, 1], num_classes=4)


class TestMetrics:
    def test_direct_substitution(self):
        # one class with tp=2, fp=1, fn=1
        counts = np.zeros((2, 2), dtype=np.int64)
        counts[0, 0] = 2
        counts[1, 0] = 1
        counts[0, 1] = 1
        report = metrics(counts, rare_classes=(1,))
        assert report.precision[0] == pytest.approx(2 / 3, abs=1e-15)
        assert report.recall[0] == pytest.approx(2 / 3, abs=1e-15)
        assert report.f1[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_accuracy_eight_of_ten(self):
        true = [1] * 5 + [2] * 5
        pred = [1] * 5 + [2] * 3 + [1] * 2
        report = metrics(confusion(true, pred, 2), rare_classes=(1,))
        assert report.accuracy == pytest.approx(0.8, abs=1e-15)

    def test_absent_class_f1_zero(self):
        # class 4 never true and never predicted -> tp=fp=fn=0 -> F1 = 0
        report = metrics(confusion([1, 2, 3], [1, 2, 3], num_classes=4), rare_classes=(1, 4))
        assert report.f1[3] == 0.0
        assert report.rare_f1 == pytest.approx(report.f1[0] / 2)

    def test_matches_naive_counter(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            n = int(rng.integers(1, 51))
            num_classes = int(rng.integers(2, 6))
            true = rng.integers(1, num_classes + 1, size=n)
            pred = rng.integers(1, num_classes + 1, size=n)
            report = metrics(confusion(true, pred, num_classes),
                             rare_classes=(1, num_classes))
            acc, per_class, macro = naive_metrics(true, pred, num_classes)
            assert abs(report.accuracy - acc) < 1e-12
            assert abs(report.overall_f1 - macro) < 1e-12
            for c in range(1, num_classes + 1):
                assert abs(report.precision[c - 1] - per_class[c][0]) < 1e-12
                assert abs(report.recall[c - 1] - per_class[c][1]) < 1e-12
                assert abs(report.f1[c - 1] - per_class[c][2]) < 1e-12

    def test_accuracy_equals_mean_correctness(self):
        rng = np.random.default_rng(17)
        true = rng.integers(1, 5, size=300)
        pred = rng.integers(1, 5, size=300)
        report = metrics(confusion(true, pred, 4), rare_classes=(1, 4))
        assert report.accuracy == pytest.approx(np.mean(true == pred), abs=1e-12)

    def test_macro_f1_permutation_invariant(self):
        rng = np.random.default_rng(23)
        true = rng.integers(1, 5, size=120)
        pred = rng.integers(1, 5, size=120)
        perm = {1: 3, 2: 4, 3: 1, 4: 2}
        relabel = np.vectorize(perm.get)
        a = metrics(confusion(true, pred, 4), rare_classes=(1, 4))
        b = metrics(confusion(relabel(true), relabel(pred), 4),
                    rare_classes=(perm[1], perm[4]))
        assert a.overall_f1 == pytest.approx(b.overall_f1, abs=1e-12)
        assert a.rare_f1 == pytest.approx(b.rare_f1, abs=1e-12)
        assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            metrics(confusion([], [], 4), rare_classes=(1, 4))


class TestStratifiedSplit:
    @staticmethod
    def _dataset(class_counts: dict[int, int]):
        targets = np.repeat(list(class_counts), list(class_counts.values()))
        rng = np.random.default_rng(0)
        X = rng.normal(size=(targets.size, 3))
        return make_dataset(X, targets)

    def test_proportional_rounding(self):
        ds = self._dataset({1: 50, 2: 30, 3: 15, 4: 5})
        train_ds, test_ds = stratified_split(ds, 0.2, seed=0)
        counts = {c: int(np.sum(test_ds.targets == c)) for c in (1, 2, 3, 4)}
        assert counts == {1: 10, 2: 6, 3: 3, 4: 1}
        assert len(train_ds) + len(test_ds) == 100

    def test_same_seed_identical(self):
        ds = self._dataset({1: 40, 2: 25, 3: 20, 4: 15})
        a_train, a_test = stratified_split(ds, 0.25, seed=9)
        b_train, b_test = stratified_split(ds, 0.25, seed=9)
        assert np.array_equal(a_test.starts, b_test.starts)
        assert a_train.features.tobytes() == b_train.features.tobytes()

    def test_union_is_partition(self):
        ds = self._dataset({1: 13, 2: 29, 3: 17, 4: 11})
        train_ds, test_ds = stratified_split(ds, 0.3, seed=5)
        both = np.concatenate([train_ds.starts, test_ds.starts])
        assert np.array_equal(np.sort(both), np.sort(ds.starts))

    def test_largest_remainder_8_2(self):
        ds = self._dataset({2: 8, 3: 2})
        _, test_ds = stratified_split(ds, 0.2, seed=1)
        assert len(test_ds) == 2
        assert int(np.sum(test_ds.targets == 2)) == 2
        assert int(np.sum(test_ds.targets == 3)) == 0

    def test_proportions_within_one_instance(self):
        ds = self._dataset({1: 37, 2: 211, 3: 149, 4: 23})
        for seed in range(5):
            _, test_ds = stratified_split(ds, 0.2, seed=seed)
            for c, n_c in {1: 37, 2: 211, 3: 149, 4: 23}.items():
                got = int(np.sum(test_ds.targets == c))
                assert abs(got - 0.2 * n_c) < 1.0

    def test_single_instance_class_goes_to_train(self):
        ds = self._dataset({1: 1, 2: 10, 3: 9})
        train_ds, test_ds = stratified_split(ds, 0.5, seed=2)
        assert int(np.sum(train_ds.targets == 1)) == 1
        assert int(np.sum(test_ds.targets == 1)) == 0

    def test_bad_fraction(self):
        ds = self._dataset({1: 5, 2: 5})
        with pytest.raises(Exception):
            stratified_split(ds, 0.0, seed=0)


class TestStratifiedFolds:
    def test_folds_partition_and_balance(self):
        rng = np.random.default_rng(3)
        targets = np.repeat([1, 2, 3, 4], [12, 40, 31, 9])
        folds = stratified_folds(targets, 3, seed=4)
        allidx = np.sort(np.concatenate(folds))
        assert np.array_equal(allidx, np.arange(targets.size))
        for c, n_c in zip([1, 2, 3, 4], [12, 40, 31, 9]):
            per_fold = [int(np.sum(targets[f] == c)) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic(self):
        targets = np.repeat([1, 2], [20, 10])
        a = stratified_folds(targets, 5, seed=7)
        b = stratified_folds(targets, 5, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _shuffled_targets(class_counts: list[int]) -> np.ndarray:
    """Class ids 1, 2, ... with the given counts, interleaved by a fixed shuffle."""
    targets = np.repeat(np.arange(1, len(class_counts) + 1), class_counts)
    return targets[np.random.default_rng(0).permutation(targets.size)]


def _rows_sha256(parts: list[np.ndarray]) -> str:
    return hashlib.sha256(json.dumps([np.asarray(p).tolist() for p in parts]).encode()).hexdigest()[:16]


def test_dealt_rows_pinned():
    """The exact rows each part of the split and of the CV folds receives.
    Recorded before the two samplers became one allocator; a change here
    moves every model and every score."""
    split_cases = {
        "single_instance": ([1, 10, 9, 6], 0.3, 2),  # round(0.3 * 25) = round(7.5) = 8
        "absent_class": ([7, 0, 12, 5], 0.25, 3),
        "half_of_19": ([5, 8, 4, 2], 0.5, 4),  # round(9.5) = 10
        "half_of_21": ([5, 9, 5, 2], 0.5, 5),  # round(10.5) = 10
        "fifth": ([37, 211, 149, 23], 0.2, 6),
        "quarter": ([13, 29, 17, 11], 0.25, 7),
    }
    fold_cases = {
        "k3_class_below_k": ([2, 17, 11, 4], 3, 8),
        "k5_classes_below_k": ([2, 17, 11, 4], 5, 9),
        "k5_single_and_absent": ([1, 0, 23, 12], 5, 10),
        "k3_absent": ([0, 40, 31, 9], 3, 11),
    }
    got = {}
    for name, (counts, fraction, seed) in split_cases.items():
        train_ds, test_ds = stratified_split(make_dataset(np.zeros((sum(counts), 1)), _shuffled_targets(counts)),
                                             fraction, seed)
        got[name] = _rows_sha256([train_ds.starts, test_ds.starts])
    for name, (counts, k, seed) in fold_cases.items():
        got[name] = _rows_sha256(stratified_folds(_shuffled_targets(counts), k, seed))
    assert got == {
        "single_instance": "a9009a94d5a7b7a6",
        "absent_class": "90678e5d507b1099",
        "half_of_19": "01d5d451c17fb857",
        "half_of_21": "33717c6dcf7b0159",
        "fifth": "e60a7a30f6b97eaa",
        "quarter": "991530c3fe95fedb",
        "k3_class_below_k": "49553ef352bb6652",
        "k5_classes_below_k": "2c6b74e59f0c264c",
        "k5_single_and_absent": "ea559d107e672fa7",
        "k3_absent": "b7a6f6d618efcc05",
    }


class TestGridSearch:
    def test_paper_grid_shape(self):
        # 3 x 3 combinations, 3 folds each -> 9 rows with 3 fold scores
        rng = np.random.default_rng(11)
        X = rng.normal(size=(90, 2))
        y = 1 + (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        ds = make_dataset(X, y)
        grid = ParamGrid(n_estimators_choices=(2, 3, 4), max_depth_choices=(1, 2, 3), folds=3)
        best, table, _ = fit_horizons([ds], grid, HyperParams(n_estimators=2, min_child_hessian=0.0), seed=0)[0]
        assert len(table) == 9
        assert all(len(cell["fold_scores"]) == 3 for cell in table)
        combos = {(c["n_estimators"], c["max_depth"]) for c in table}
        assert combos == {(a, b) for a in (2, 3, 4) for b in (1, 2, 3)}

    def test_single_combination(self):
        ds = self._xor_dataset(120)
        grid = ParamGrid(n_estimators_choices=(5,), max_depth_choices=(2,), folds=2)
        best, table, _ = fit_horizons([ds], grid, HyperParams(min_child_hessian=0.0), seed=0)[0]
        assert (best.n_estimators, best.max_depth) == (5, 2)
        assert len(table) == 1

    @staticmethod
    def _xor_dataset(n, seed=13):
        # class 2 iff the two features agree in sign, else class 3: a pure
        # interaction that depth-1 stumps cannot express
        rng = np.random.default_rng(seed)
        X = rng.uniform(-4, 4, size=(n, 2))
        X[np.abs(X) < 0.3] += 0.6
        agree = (X[:, 0] > 0) == (X[:, 1] > 0)
        return make_dataset(X, np.where(agree, 2, 3))

    def test_xor_fixture_needs_depth_two(self):
        ds = self._xor_dataset(160)
        grid = ParamGrid(n_estimators_choices=(20,), max_depth_choices=(1, 2), folds=3)
        best, table, _ = fit_horizons([ds], grid, HyperParams(min_child_hessian=0.0), seed=0)[0]
        assert best.max_depth == 2
        by_depth = {c["max_depth"]: c["mean_score"] for c in table}
        # macro-F1 over 4 ids caps at 0.5 here (two ids never occur); depth 2
        # must approach the cap while depth-1 stumps stay clearly below it
        assert by_depth[2] > 0.45
        assert by_depth[2] > by_depth[1] + 0.1

    def test_final_model_fit_with_the_winning_params(self):
        ds = self._xor_dataset(120)
        grid = ParamGrid(n_estimators_choices=(3, 5), max_depth_choices=(1, 2), folds=2)
        best, _, model = fit_horizons([ds], grid, HyperParams(min_child_hessian=0.0), seed=0)[0]
        assert serialize_model(model) == serialize_model(train(ds, best))

    def test_no_grid_fits_the_fixed_params(self):
        parts = [self._xor_dataset(60, seed) for seed in (1, 2)]
        fixed = HyperParams(n_estimators=3, max_depth=2, min_child_hessian=0.0)
        fits = fit_horizons(parts, None, fixed)
        assert [(params, table) for params, table, _ in fits] == [(fixed, []), (fixed, [])]
        assert [serialize_model(model) for _, _, model in fits] == [serialize_model(train(p, fixed)) for p in parts]

    def test_tie_break_smaller_first(self):
        # all-identical scores force the documented tie-break
        ds = self._xor_dataset(60)
        grid = ParamGrid(n_estimators_choices=(3, 2), max_depth_choices=(4, 3), folds=2)
        best, table, _ = fit_horizons([ds], grid, HyperParams(min_child_hessian=0.0), seed=0)[0]
        scores = {(c["n_estimators"], c["max_depth"]): c["mean_score"] for c in table}
        top = max(scores.values())
        tied = sorted(k for k, v in scores.items() if v == top)
        assert (best.n_estimators, best.max_depth) == tied[0]


class TestMultiHorizon:
    @staticmethod
    def _triples(wps, horizons, lag_count=4):
        """(model, train, test) per horizon, split and trained as `windramp
        train` would."""
        thresholds = ThresholdSet.from_fraction(0.5, wps.rated_capacity_mw)
        triples = []
        for s in horizons:
            ds = build_dataset(wps, HorizonSpec(steps_ahead=s, lag_count=lag_count), thresholds)
            train_ds, test_ds = stratified_split(ds, 0.25, seed=s)
            model = train(train_ds, HyperParams(n_estimators=2, max_depth=2))
            triples.append((model, train_ds, test_ds))
        return triples

    def test_mean_of_constant_f1(self):
        wps = generate_series(600, seed=2)
        triples = self._triples(wps, (1, 2, 3))
        doc, seconds = evaluate_horizons(iter(triples))
        names = ["gbrt", "persistence", "majority"]
        assert [entry["model"] for entry in doc["models"]] == names
        # wall-clock stays out of the document
        assert set(doc) == {"models"}
        assert all(set(entry) == {"model", "mean_accuracy", "mean_overall_f1", "mean_rare_f1", "pooled_accuracy",
                                  "per_horizon"} for entry in doc["models"])
        assert list(seconds) == names and min(seconds.values()) >= 0.0
        predictions = {
            "gbrt": lambda model, _, test: (test.targets, model.predict_class(test.features)),
            "persistence": lambda _, __, test: persistence_predict(test),
            "majority": lambda _, train_ds, test: (test.targets, majority_predict(train_ds.targets, len(test))),
        }
        for entry in doc["models"]:
            counts = [confusion(*predictions[entry["model"]](*triple), 4) for triple in triples]
            assert [r["steps_ahead"] for r in entry["per_horizon"]] == [1, 2, 3]
            assert entry["per_horizon"] == [{**metrics(c, (1, 4)).to_dict(), "steps_ahead": s}
                                            for c, s in zip(counts, (1, 2, 3))]
            for key in ("accuracy", "overall_f1", "rare_f1"):
                means = np.mean([r[key] for r in entry["per_horizon"]])
                assert entry[f"mean_{key}"] == pytest.approx(means, abs=1e-12)
            pooled = np.sum(counts, axis=0)
            assert entry["pooled_accuracy"] == pytest.approx(np.trace(pooled) / pooled.sum(), abs=1e-12)
        # majority predicts one class, so at most one class has non-zero F1
        majority = doc["models"][2]
        assert all(sum(c["f1"] > 0 for c in r["per_class"].values()) <= 1 for r in majority["per_horizon"])

    class _Fixed:
        """Stands in for a model: predicts the given classes."""

        n_features, num_classes = 4, 4

        def __init__(self, classes):
            self.classes = classes

        def predict_class(self, features):
            return self.classes

    def test_two_point_mean(self):
        # all right on one horizon, half right on a larger one: the mean over
        # horizons weights them equally, the pooled accuracy by their rows
        wps = generate_series(600, seed=2)
        (_, train_a, test_a), (_, train_b, test_b) = self._triples(wps, (1, 2))
        half = len(test_b) // 2
        guesses = np.concatenate([test_b.targets[:half], np.where(test_b.targets[half:] == 1, 2, 1)])
        doc, _ = evaluate_horizons([(self._Fixed(test_a.targets), train_a, test_a),
                                    (self._Fixed(guesses), train_b, test_b)])
        gbrt = doc["models"][0]
        assert [r["accuracy"] for r in gbrt["per_horizon"]] == [1.0, half / len(test_b)]
        assert gbrt["mean_accuracy"] == pytest.approx((1.0 + half / len(test_b)) / 2, abs=1e-12)
        assert gbrt["pooled_accuracy"] == pytest.approx((len(test_a) + half) / (len(test_a) + len(test_b)), abs=1e-12)

    def test_width_mismatch_rejected(self):
        wps = generate_series(400, seed=2)
        (model, _, _), = self._triples(wps, (1,), lag_count=4)
        (_, train_ds, test_ds), = self._triples(wps, (1,), lag_count=5)
        with pytest.raises(DataError, match="mismatch"):
            evaluate_horizons([(model, train_ds, test_ds)])

    def test_duplicate_horizon_rejected(self):
        wps = generate_series(400, seed=2)
        triple, = self._triples(wps, (1,))
        with pytest.raises(DataError, match="duplicate"):
            evaluate_horizons([triple, triple])
