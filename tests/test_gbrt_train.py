import json

import numpy as np
import pytest

from windramp import (
    ConfigError,
    DataError,
    HyperParams,
    ModelFormatError,
    TrainingError,
    deserialize_model,
    objective_trace,
    serialize_model,
    train,
)

from .conftest import make_dataset, quadrant_dataset
from .oracles import model_objective


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
        assert max(t.depth for rnd in model.trees for t in rnd) <= 3

    def test_objective_non_increasing(self):
        ds = quadrant_dataset(n=50, seed=1)
        model = train(ds, HyperParams(n_estimators=30, max_depth=2, min_child_hessian=0.0))
        trace = objective_trace(model, ds)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_objective_matches_independent_evaluator(self):
        ds = quadrant_dataset(n=20, seed=2)
        model = train(ds, small_params(n_estimators=5))
        trace = objective_trace(model, ds)
        doc = json.loads(serialize_model(model))
        oracle = model_objective(doc, ds.features, ds.targets)
        assert np.allclose(trace, oracle, rtol=1e-10, atol=1e-8)
        assert all(b - a <= 1e-9 for a, b in zip(oracle, oracle[1:]))

    def test_priors_base_score(self):
        ds = make_dataset(np.random.default_rng(3).normal(size=(10, 2)),
                          [2, 2, 2, 2, 2, 2, 3, 3, 3, 3])
        model = train(ds, small_params(n_estimators=1))
        expected = np.log((np.array([0, 6, 4, 0]) + 1) / (10 + 4))
        assert np.allclose(model.base_score, expected, atol=1e-15)


class TestDeterminism:
    def test_worker_counts_give_identical_bytes(self):
        rng = np.random.default_rng(8)
        n = 600
        X = rng.normal(size=(n, 6)).round(3)  # duplicates force tie-breaks
        y = 1 + (rng.random(n) < 0.5) + 2 * (X[:, 0] > 0)
        ds = make_dataset(X * 2, y.astype(int))
        blobs = {
            w: serialize_model(train(ds, small_params(n_estimators=6, max_depth=3), workers=w))
            for w in (1, 2, 8)
        }
        assert blobs[1] == blobs[2] == blobs[8]

    def test_repeat_run_bit_identical(self):
        ds = quadrant_dataset(n=80, seed=5)
        a = serialize_model(train(ds, small_params(n_estimators=4)))
        b = serialize_model(train(ds, small_params(n_estimators=4)))
        assert a == b


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
        assert doc["version"] == 1
        assert doc["num_classes"] == 4
        assert len(doc["base_score"]) == 4
        assert len(doc["rounds"]) == 3
        assert all(len(rnd) == 4 for rnd in doc["rounds"])
        internal = [n for n in doc["rounds"][0][0] if "weight" not in n]
        for node in internal:
            assert set(node) == {"feature", "threshold", "left", "right", "default"}
            assert node["default"] == "left"

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
        root = doc["rounds"][0][0][0]
        assert "feature" in root
        return doc, root

    def test_cyclic_tree_rejected(self):
        doc, root = self._split_doc()
        root["left"] = root["right"] = 0
        with pytest.raises(ModelFormatError, match="child index"):
            deserialize_model(json.dumps(doc))

    def test_child_before_parent_rejected(self):
        doc, _ = self._split_doc()
        nodes = doc["rounds"][0][0]
        inner = next(i for i, node in enumerate(nodes) if i > 0 and "feature" in node)
        nodes[inner]["right"] = inner - 1
        with pytest.raises(ModelFormatError, match="child index"):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("feature", [2, 99, -3])
    def test_feature_out_of_range_rejected(self, feature):
        doc, root = self._split_doc()
        root["feature"] = feature
        with pytest.raises(ModelFormatError, match="feature"):
            deserialize_model(json.dumps(doc))

    def test_garbage_rejected(self):
        with pytest.raises(ModelFormatError):
            deserialize_model("not json at all {{{")
        with pytest.raises(ModelFormatError):
            deserialize_model('["wrong shape"]')
