import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from windramp import (
    ConfigError,
    DataError,
    HorizonSpec,
    HyperParams,
    ModelFormatError,
    ParamGrid,
    ThresholdSet,
    TrainingError,
    build_dataset,
    evaluation,
    fit_horizons,
    generate_series,
    train,
)
from windramp.gbrt import deserialize_model, serialize_model

from .conftest import make_dataset, quadrant_dataset, tree_depth
from .oracles import model_objective, tree_leaf_weights


def small_params(**overrides):
    base = dict(n_estimators=10, max_depth=2, min_child_hessian=0.0)
    base.update(overrides)
    return HyperParams(**base)


class TestTrain:
    def test_quadrant_set_reaches_full_training_accuracy(self):
        ds = quadrant_dataset(n=40)
        model = train(ds, HyperParams(n_estimators=50, max_depth=2, min_child_hessian=0.0))
        assert np.array_equal(model.predict_class(ds.features), ds.targets)

    def test_n_estimators_zero_rejected(self):
        with pytest.raises(ConfigError):
            HyperParams(n_estimators=0)

    @pytest.mark.parametrize("field, value", [
        ("n_estimators", 2.5), ("n_estimators", True), ("n_estimators", "3"),
        ("max_depth", 4.0), ("max_depth", False), ("max_depth", 13), ("max_depth", 40),
    ])
    def test_non_integer_or_too_deep_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            HyperParams(**{field: value})

    def test_single_round_model(self):
        ds = quadrant_dataset(n=24)
        model = train(ds, small_params(n_estimators=1))
        assert model.n_rounds == 1
        assert len(model.trees[0]) == ds.num_classes
        proba = model.predict_proba(ds.features)
        assert proba.shape == (24, 4)

    def test_single_class_dataset_rejected(self):
        ds = make_dataset(np.random.default_rng(0).normal(size=(10, 2)), [2] * 10)
        with pytest.raises(TrainingError, match="single class"):
            train(ds, small_params())

    def test_non_finite_features_rejected(self):
        X = np.ones((6, 2))
        X[3, 1] = np.nan
        with pytest.raises(DataError):
            # the dataset container itself refuses non-finite features
            make_dataset(X, [1, 2, 3, 4, 1, 2])

    def test_every_round_has_one_tree_per_class(self):
        ds = quadrant_dataset(n=30)
        model = train(ds, small_params(n_estimators=7))
        assert model.n_rounds == 7
        assert all(len(rnd) == 4 for rnd in model.trees)

    def test_max_depth_respected_across_ensemble(self):
        ds = quadrant_dataset(n=60, seed=3)
        model = train(ds, small_params(n_estimators=8, max_depth=3))
        assert max(tree_depth(t) for rnd in model.trees for t in rnd) <= 3

    def test_objective_non_increasing(self):
        ds = quadrant_dataset(n=50, seed=1)
        params = HyperParams(n_estimators=30, max_depth=2, min_child_hessian=0.0)
        trace = model_objective(json.loads(serialize_model(train(ds, params))), ds.features, ds.targets, params)
        assert len(trace) == 31
        assert np.all(np.diff(trace) <= 1e-9)

    def test_objective_matches_independent_evaluator(self):
        ds = quadrant_dataset(n=20, seed=2)
        params = small_params(n_estimators=5)
        doc = json.loads(serialize_model(train(ds, params)))
        oracle = model_objective(doc, ds.features, ds.targets, params)
        assert len(oracle) == 6
        assert all(b - a <= 1e-9 for a, b in zip(oracle, oracle[1:]))
        # training moved the objective: the trace is not flat at the base score
        assert oracle[-1] < oracle[0] - 1e-3

    def test_priors_base_score(self):
        ds = make_dataset(np.random.default_rng(3).normal(size=(10, 2)),
                          [2, 2, 2, 2, 2, 2, 3, 3, 3, 3])
        model = train(ds, small_params(n_estimators=1))
        expected = np.log((np.array([0, 6, 4, 0]) + 1) / (10 + 4))
        assert np.allclose(model.base_score, expected, atol=1e-15)


def grid_parts():
    """Three train parts whose duplicate feature values force tie-breaks,
    and a grid of 2 x 2 cells with 3 folds."""
    parts = []
    for seed in (8, 9, 10):
        rng = np.random.default_rng(seed)
        n = 600
        X = rng.normal(size=(n, 6)).round(3)
        y = 1 + (rng.random(n) < 0.5) + 2 * (X[:, 0] > 0)
        parts.append(make_dataset(X * 2, y.astype(int)))
    return parts, ParamGrid(n_estimators_choices=(2, 3), max_depth_choices=(1, 3), folds=3)


# numpy's exp kernel family, by the sha256 of np.exp(np.linspace(-5, 5, 1001)).tobytes(); with
# NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" an AVX-512 CPU uses the AVX2 kernels
EXP_KERNELS = {
    "690a80482fd7b793b444e8336f5790b6206903678db065ee5a55d46c9716a06e": "avx512",
    "7066d40dc02dd200671af2f5501c88ca205927070b22843b8a5b4fa8b2f7064c": "avx2",
}


def fits_as_bytes(fits) -> list:
    """Each part's (winning params, CV table JSON, final model document)."""
    return [(best, json.dumps(table), serialize_model(model))
            for best, table, model in fits]


class TestDeterminism:
    def test_worker_counts_give_identical_bytes(self):
        parts, grid = grid_parts()
        # 8 is capped at the core count
        results = {w: fits_as_bytes(fit_horizons(parts, grid, small_params(), seed=3, workers=w)) for w in (1, 2, 8)}
        assert results[1] == results[2] == results[8]
        assert len(results[1]) == 3
        for _, table, _ in results[1]:
            cells = json.loads(table)
            assert len(cells) == 4 and all(len(cell["fold_scores"]) == 3 for cell in cells)

    @pytest.mark.parametrize("params, depth, digests", [
        (HyperParams(n_estimators=5, max_depth=4), 4, {
            "avx512": "1ec66739bb34242714b86f725928f9cdb5561cf381ec11b7133bd36a0be1202a",
            "avx2": "0d7034a906b8d9ba67bdf25c4b8c4bbd25fd492c7327610858ab6526fb83195f",
        }),
        # the hessian floor stops every tree short of max_depth: the layout is cut to the deepest
        (HyperParams(n_estimators=5, max_depth=12, min_child_hessian=50.0), 9, {
            "avx512": "7773042bd9a20ff60b71436b5116f6a272d57a0a08f7717e6b99c0a343696544",
            "avx2": "4bf71ed5f6dd82090ac24f80c3fc043805b802ea5b0c81441e0cb59fb01e9991",
        }),
    ], ids=["depth_4", "hessian_floor_depth_9"])
    def test_raw_scores_pinned(self, params, depth, digests):
        """Bits of a multi-round fit: gradient updates, shrinkage and the
        cut to the deepest tree. Every sum runs in a fixed order, but softmax
        and the base score call numpy's exp and log, whose last bits differ
        between its AVX-512 kernels and its AVX2 (or older) ones, and may
        between numpy builds. A probe of exp's bits picks the family; a probe
        with no recorded digests fails and names itself, so its digests can
        be recorded."""
        probe = hashlib.sha256(np.exp(np.linspace(-5, 5, 1001)).tobytes()).hexdigest()
        assert probe in EXP_KERNELS, f"no raw-score digests recorded for numpy's exp kernels with probe {probe}"
        ds = build_dataset(generate_series(4320, seed=1), HorizonSpec(steps_ahead=6, lag_count=36),
                           ThresholdSet.from_fraction(0.5, 20.0))
        model = train(ds, params)
        assert model.feature.shape == (5 * ds.num_classes, 2**depth - 1)
        assert hashlib.sha256(model.raw_scores(ds.features).tobytes()).hexdigest() == digests[EXP_KERNELS[probe]]

    def test_repeat_run_bit_identical(self):
        ds = quadrant_dataset(n=80, seed=5)
        a = serialize_model(train(ds, small_params(n_estimators=4)))
        b = serialize_model(train(ds, small_params(n_estimators=4)))
        assert a == b


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one core the fits run in this process")
class TestPool:
    def test_wrapped_train_runs_in_workers(self, monkeypatch):
        # the way a tracer wraps train: a local closure, which cannot be pickled
        parts, grid = grid_parts()
        expected = fits_as_bytes(fit_horizons(parts, grid, small_params(), seed=3, workers=1))
        real = evaluation.train

        def wrapped(*args, **kwargs):
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "train", wrapped)
        fits = fit_horizons(parts, grid, small_params(), seed=3, workers=2)
        assert fits_as_bytes(fits) == expected
        # a model sent back from a worker is as read-only as one trained here
        assert not fits[0][2].leaf.flags.writeable

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked worker sees the patched train")
    def test_dead_worker_is_a_training_error(self, monkeypatch):
        parts, grid = grid_parts()
        monkeypatch.setattr(evaluation, "train", lambda *args, **kwargs: os._exit(1))
        with pytest.raises(TrainingError, match="worker process died"):
            fit_horizons(parts, grid, small_params(), seed=3, workers=2)
        assert multiprocessing.active_children() == []

    def test_job_error_keeps_its_type(self):
        parts, grid = grid_parts()
        # a single-class part fails its first fold fit with the documented error
        parts[1] = make_dataset(parts[1].features, np.full(len(parts[1]), 2))
        with pytest.raises(TrainingError, match="single class"):
            fit_horizons(parts, grid, small_params(), seed=3, workers=2)
        assert multiprocessing.active_children() == []


class TestPredict:
    def test_zero_round_equivalent_uniform(self):
        # a model with balanced priors and one all-leaf round stays uniform
        ds = make_dataset(np.zeros((4, 2)), [1, 2, 3, 4])
        model = train(ds, small_params(n_estimators=1))
        proba = model.predict_proba(np.zeros((3, 2)))
        assert np.allclose(proba, 0.25, atol=1e-12)

    def test_rows_sum_to_one(self):
        ds = quadrant_dataset(n=50, seed=6)
        model = train(ds, small_params(n_estimators=10))
        proba = model.predict_proba(np.random.default_rng(0).normal(size=(200, 2)) * 5)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba > 0)
        assert np.all(proba < 1)

    def test_argmax_consistency(self):
        ds = quadrant_dataset(n=50, seed=7)
        model = train(ds, small_params(n_estimators=5))
        X = np.random.default_rng(1).normal(size=(100, 2)) * 5
        assert np.array_equal(
            model.predict_class(X), np.argmax(model.predict_proba(X), axis=1) + 1
        )

    def test_exact_tie_goes_to_lower_id(self):
        ds = make_dataset(np.zeros((4, 2)), [1, 2, 3, 4])
        model = train(ds, small_params(n_estimators=1))
        assert model.predict_class(np.zeros((1, 2)))[0] == 1

    def test_width_mismatch(self):
        ds = quadrant_dataset(n=20)
        model = train(ds, small_params(n_estimators=1))
        with pytest.raises(DataError, match="width"):
            model.predict_proba(np.zeros((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        ds = quadrant_dataset(n=20)
        model = train(ds, small_params(n_estimators=1))
        X = np.zeros((3, 2))
        X[1, 0] = bad
        with pytest.raises(DataError, match="row 1 .*non-finite"):
            model.predict_class(X)


class TestModelIO:
    def test_round_trip_identical_predictions(self):
        ds = quadrant_dataset(n=60, seed=9)
        model = train(ds, small_params(n_estimators=12, max_depth=3))
        clone = deserialize_model(serialize_model(model))
        X = np.random.default_rng(2).normal(size=(1000, 2)) * 6
        assert model.predict_proba(X).tobytes() == clone.predict_proba(X).tobytes()
        assert np.array_equal(model.predict_class(X), clone.predict_class(X))

    def test_serialize_deterministic(self):
        ds = quadrant_dataset(n=30)
        model = train(ds, small_params(n_estimators=2))
        assert serialize_model(model) == serialize_model(deserialize_model(serialize_model(model)))

    def test_document_shape(self):
        ds = quadrant_dataset(n=30)
        model = train(ds, small_params(n_estimators=3))
        doc = json.loads(serialize_model(model))
        assert set(doc) == {"version", "n_features", "base_score", "feature", "threshold", "leaf"}
        assert doc["version"] == 3
        assert len(doc["base_score"]) == 4
        n_slots = len(doc["feature"][0])
        depth = max(tree_depth(t) for rnd in model.trees for t in rnd)
        assert n_slots == 2**depth - 1
        for key, width in (("feature", n_slots), ("threshold", n_slots), ("leaf", n_slots + 1)):
            assert len(doc[key]) == 3 * 4
            assert all(len(row) == width for row in doc[key])
        # a slot that does not split is written with threshold 0, never Infinity
        for feature, threshold in zip(doc["feature"], doc["threshold"]):
            assert all(t == 0.0 for f, t in zip(feature, threshold) if f == -1)

    def test_leaves_stored_shrunken(self):
        # the first round's trees do not depend on the learning rate
        ds = quadrant_dataset(n=30)
        full = train(ds, small_params(n_estimators=1, learning_rate=1.0))
        shrunken = train(ds, small_params(n_estimators=1, learning_rate=0.3))
        assert np.array_equal(shrunken.feature, full.feature)
        assert shrunken.leaf.tobytes() == (0.3 * full.leaf).tobytes()
        assert json.loads(serialize_model(shrunken))["leaf"] == (0.3 * full.leaf).tolist()

    def test_tree_views_count_real_nodes(self):
        ds = quadrant_dataset(n=30)
        model = train(ds, small_params(n_estimators=3))
        doc = json.loads(serialize_model(model))
        for t, tree in enumerate(tree for rnd in model.trees for tree in rnd):
            leaves = tree_leaf_weights(doc["feature"][t], doc["leaf"][t])
            assert tree.n_leaves == len(leaves)
            assert tree.n_nodes == 2 * len(leaves) - 1
            assert not tree.leaf.flags.writeable
        # this model has leaves above depth D, so the layout holds padding
        assert any(t.n_leaves < 2**tree_depth(t) for rnd in model.trees for t in rnd)

    def test_truncated_document_rejected(self):
        ds = quadrant_dataset(n=30)
        blob = serialize_model(train(ds, small_params(n_estimators=2)))
        with pytest.raises(ModelFormatError):
            deserialize_model(blob[: len(blob) // 2])

    def test_version_mismatch_rejected(self):
        ds = quadrant_dataset(n=30)
        doc = json.loads(serialize_model(train(ds, small_params(n_estimators=1))))
        doc["version"] = 99
        with pytest.raises(ModelFormatError, match="version"):
            deserialize_model(json.dumps(doc))

    def _split_doc(self):
        ds = quadrant_dataset(n=30)
        doc = json.loads(serialize_model(train(ds, small_params(n_estimators=1))))
        assert doc["feature"][0][0] >= 0
        return doc

    def test_layout_length_rejected(self):
        doc = self._split_doc()
        for key in ("feature", "threshold"):
            for row in doc[key]:
                row.pop()
        with pytest.raises(ModelFormatError, match="layout"):
            deserialize_model(json.dumps(doc))

    def test_split_below_leaf_rejected(self):
        doc = self._split_doc()
        tree = next(row for row in doc["feature"] if max(row[1:]) >= 0)
        tree[0] = -1
        with pytest.raises(ModelFormatError, match="below a slot that does not split"):
            deserialize_model(json.dumps(doc))

    def test_leaf_copies_differ_rejected(self):
        doc = self._split_doc()
        # a depth-2 tree whose slot 1 or 2 is a leaf holds its weight twice
        t, i = next((t, i) for t, row in enumerate(doc["feature"]) for i in (1, 2)
                    if len(row) == 3 and row[0] >= 0 and row[i] < 0)
        doc["leaf"][t][2 * i - 1] += 1.0
        with pytest.raises(ModelFormatError, match="one weight"):
            deserialize_model(json.dumps(doc))

    def test_layout_deeper_than_max_depth_rejected(self):
        doc = self._split_doc()
        n = 2**13 - 1
        for key, fill, width in (("feature", -1, n), ("threshold", 0.0, n), ("leaf", 0.0, n + 1)):
            doc[key] = [[fill] * width for _ in doc[key]]
        with pytest.raises(ModelFormatError, match="layout depth 13"):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("feature", [2, 99, -3])
    def test_feature_out_of_range_rejected(self, feature):
        doc = self._split_doc()
        doc["feature"][0][0] = feature
        with pytest.raises(ModelFormatError, match="feature"):
            deserialize_model(json.dumps(doc))

    def test_garbage_rejected(self):
        with pytest.raises(ModelFormatError):
            deserialize_model("not json at all {{{")
        with pytest.raises(ModelFormatError):
            deserialize_model('["wrong shape"]')
