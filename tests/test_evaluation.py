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
from windramp.evaluation import _aggregate, confusion, metrics, stratified_folds
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
        report = metrics(confusion(true, pred, 4))
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
            metrics(confusion([], [], 4))


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
        assert np.array_equal(a_test.anchor_ts, b_test.anchor_ts)
        assert a_train.features.tobytes() == b_train.features.tobytes()

    def test_union_is_partition(self):
        ds = self._dataset({1: 13, 2: 29, 3: 17, 4: 11})
        train_ds, test_ds = stratified_split(ds, 0.3, seed=5)
        both = np.concatenate([train_ds.anchor_ts, test_ds.anchor_ts])
        assert np.array_equal(np.sort(both), np.sort(ds.anchor_ts))

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

    def test_single_instance_class_goes_to_train(self, caplog):
        ds = self._dataset({1: 1, 2: 10, 3: 9})
        with caplog.at_level("WARNING"):
            train_ds, test_ds = stratified_split(ds, 0.5, seed=2)
        assert int(np.sum(train_ds.targets == 1)) == 1
        assert int(np.sum(test_ds.targets == 1)) == 0
        assert "single instance" in caplog.text

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
        assert all(len(cell.fold_scores) == 3 for cell in table)
        combos = {(c.n_estimators, c.max_depth) for c in table}
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
        by_depth = {c.max_depth: c.mean_score for c in table}
        # macro-F1 over 4 ids caps at 0.5 here (two ids never occur); depth 2
        # must approach the cap while depth-1 stumps stay clearly below it
        assert by_depth[2] > 0.45
        assert by_depth[2] > by_depth[1] + 0.1

    def test_final_model_fit_with_the_winning_params(self):
        ds = self._xor_dataset(120)
        grid = ParamGrid(n_estimators_choices=(3, 5), max_depth_choices=(1, 2), folds=2)
        best, _, model = fit_horizons([ds], grid, HyperParams(min_child_hessian=0.0), seed=0)[0]
        assert model.hyperparams == best
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
        scores = {(\
            c.n_estimators, c.max_depth): c.mean_score for c in table}
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
        reports = evaluate_horizons(wps, iter(triples))
        assert [r.model_name for r in reports] == ["gbrt", "persistence", "majority"]
        for report in reports:
            f1s = [r.overall_f1 for r in report.per_horizon]
            accs = [r.accuracy for r in report.per_horizon]
            assert report.mean_overall_f1 == pytest.approx(np.mean(f1s), abs=1e-12)
            assert report.mean_accuracy == pytest.approx(np.mean(accs), abs=1e-12)
            assert [r.horizon.steps_ahead for r in report.per_horizon] == [1, 2, 3]
            assert report.test_seconds_per_example >= 0.0
            assert "test_seconds_per_example" not in report.to_dict()
        gbrt, _, majority = reports
        for (model, _, test), got in zip(triples, gbrt.per_horizon):
            counts = confusion(test.targets, model.predict_class(test.features), test.num_classes)
            assert got == metrics(counts, (1, 4), test.horizon)
        # majority predicts one class, so at most one class has non-zero F1
        assert all(sum(f > 0 for f in r.f1) <= 1 for r in majority.per_horizon)

    def test_two_point_mean(self):
        counts_a = confusion([1, 1, 2, 2], [1, 1, 2, 2], 4)  # accuracy 1.0
        counts_b = confusion([1, 1, 2, 2], [1, 2, 1, 2], 4)  # accuracy 0.5
        rep = _aggregate(
            [metrics(counts_a, (1, 4)), metrics(counts_b, (1, 4))], [counts_a, counts_b], "gbrt", 0.0
        )
        assert rep.mean_accuracy == pytest.approx(0.75, abs=1e-12)
        assert rep.pooled_accuracy == pytest.approx(0.75, abs=1e-12)

    def test_width_mismatch_rejected(self):
        wps = generate_series(400, seed=2)
        (model, _, _), = self._triples(wps, (1,), lag_count=4)
        (_, train_ds, test_ds), = self._triples(wps, (1,), lag_count=5)
        with pytest.raises(DataError, match="mismatch"):
            evaluate_horizons(wps, [(model, train_ds, test_ds)])

    def test_duplicate_horizon_rejected(self):
        wps = generate_series(400, seed=2)
        triple, = self._triples(wps, (1,))
        with pytest.raises(DataError, match="duplicate"):
            evaluate_horizons(wps, [triple, triple])
