import hashlib
import itertools

import numpy as np
import pytest

from windramp import DataError, HyperParams
from windramp.gbrt import find_best_split, grow_tree, presort, softmax_gradients

from .oracles import brute_force_best_split, finite_difference_gradients, leaf_slot


class TestSoftmaxGradients:
    def test_uniform_scores_four_classes(self):
        scores = np.zeros((1, 4))
        g, h = softmax_gradients(scores, np.array([0]))
        assert np.allclose(g, [[-0.75, 0.25, 0.25, 0.25]], atol=1e-12)
        assert np.allclose(h, 0.1875, atol=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(50, 4))
        targets = rng.integers(0, 4, size=50)
        g, _ = softmax_gradients(scores, targets)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        scores = rng.normal(scale=2.0, size=(100, 4))
        targets = rng.integers(0, 4, size=100)
        g, h = softmax_gradients(scores, targets)
        g_fd, h_fd = finite_difference_gradients(scores, targets, eps=1e-6)
        assert np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-3)) < 1e-4
        assert np.max(np.abs(h - h_fd) / np.maximum(np.abs(h_fd), 1e-3)) < 1e-4

    def test_saturated_scores(self):
        scores = np.array([[50.0, 0.0, 0.0, 0.0]])
        g, h = softmax_gradients(scores, np.array([0]))
        assert np.all(np.abs(g) < 1e-20)
        assert np.all(h >= 0)

    def test_two_class_equal_scores(self):
        g, _ = softmax_gradients(np.array([[0.0, 0.0]]), np.array([1]))
        assert np.allclose(g, [[0.5, -0.5]], atol=1e-15)
        g_fd, _ = finite_difference_gradients([[0.0, 0.0]], [1])
        assert np.allclose(g, g_fd, atol=1e-4)

    def test_hessian_nonnegative(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(scale=10.0, size=(200, 4))
        _, h = softmax_gradients(scores, rng.integers(0, 4, size=200))
        assert np.all(h >= 0)

    def test_bad_targets_rejected(self):
        with pytest.raises(DataError):
            softmax_gradients(np.zeros((2, 3)), np.array([0, 3]))


def _tree_values(tree, X):
    return [tree.leaf[leaf_slot(tree.feature, tree.threshold, x)] for x in X]


class TestFindBestSplit:
    def test_two_row_hand_example(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        params = HyperParams(n_estimators=1, max_depth=1, reg_lambda=1.0, gamma=0.0,
                             min_child_hessian=0.0)
        split = find_best_split(*presort(X), g, h, params)
        assert split is not None
        assert split.feature == 0
        assert split.threshold == 0.5
        assert split.gain == pytest.approx(0.5, abs=1e-15)

    def test_pure_node_returns_none(self):
        X = np.array([[0.0], [1.0], [2.0]])
        g = np.zeros(3)
        h = np.ones(3)
        params = HyperParams(n_estimators=1, max_depth=1, min_child_hessian=0.0)
        assert find_best_split(*presort(X), g, h, params) is None

    def test_constant_feature_returns_none(self):
        X = np.ones((4, 1))
        g = np.array([1.0, -1.0, 1.0, -1.0])
        h = np.ones(4)
        params = HyperParams(n_estimators=1, max_depth=1, min_child_hessian=0.0)
        assert find_best_split(*presort(X), g, h, params) is None

    def test_min_child_hessian_blocks_split(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([1.0, -1.0])
        h = np.array([0.5, 0.5])
        params = HyperParams(n_estimators=1, max_depth=1, min_child_hessian=1.0)
        assert find_best_split(*presort(X), g, h, params) is None

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # identical separating power on both features
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = np.array([2.0, -2.0])
        h = np.array([1.0, 1.0])
        params = HyperParams(n_estimators=1, max_depth=1, min_child_hessian=0.0)
        split = find_best_split(*presort(X), g, h, params)
        assert split.feature == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        num_features = int(rng.integers(1, 4))
        X = rng.choice([0.0, 1.0, 2.0], size=(n, num_features))
        g = rng.choice([-1.0, 0.5, 2.0], size=n)
        h = rng.choice([0.5, 1.0], size=n)
        mch = float(rng.choice([0.0, 1.0]))
        params = HyperParams(n_estimators=1, max_depth=1, reg_lambda=1.0,
                             gamma=0.0, min_child_hessian=mch)
        fast = find_best_split(*presort(X), g, h, params)
        slow = brute_force_best_split(X, g, h, 1.0, 0.0, mch)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert (fast.feature, fast.threshold) == (slow[0], slow[1])
            assert fast.gain == pytest.approx(slow[2], abs=1e-12)

    def test_matches_brute_force_with_gamma(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            X = rng.choice([0.0, 1.0, 2.0], size=(6, 2))
            g = rng.choice([-1.0, 0.5, 2.0], size=6)
            h = rng.choice([0.5, 1.0], size=6)
            params = HyperParams(n_estimators=1, max_depth=1, reg_lambda=1.0,
                                 gamma=0.25, min_child_hessian=0.0)
            fast = find_best_split(*presort(X), g, h, params)
            slow = brute_force_best_split(X, g, h, 1.0, 0.25, 0.0)
            if slow is None:
                assert fast is None
            else:
                assert (fast.feature, fast.threshold, fast.gain) == pytest.approx(slow)


class TestGrowTree:
    def test_depth_one_leaf_weights(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        params = HyperParams(n_estimators=1, max_depth=1, reg_lambda=1.0,
                             min_child_hessian=0.0)
        tree = grow_tree(*presort(X), g, h, params)
        assert tree.depth == 1
        assert tree.n_leaves == 2
        # w* = -G/(H+lambda) per side
        assert _tree_values(tree, X) == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_zero_gradients_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        g = np.zeros(3)
        h = np.ones(3)
        params = HyperParams(n_estimators=1, max_depth=3, min_child_hessian=0.0)
        tree = grow_tree(*presort(X), g, h, params)
        assert tree.n_leaves == 1
        assert tree.depth == 0
        assert _tree_values(tree, X) == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    @pytest.mark.parametrize("max_depth", [1, 2, 3, 5])
    def test_depth_bound(self, max_depth):
        rng = np.random.default_rng(max_depth)
        X = rng.normal(size=(64, 3))
        g = rng.normal(size=64)
        h = np.full(64, 0.25)
        params = HyperParams(n_estimators=1, max_depth=max_depth, min_child_hessian=0.0)
        tree = grow_tree(*presort(X), g, h, params)
        assert tree.depth <= max_depth

    def test_children_nonempty_with_zero_mch(self):
        rng = np.random.default_rng(5)
        X = rng.choice([0.0, 1.0, 2.0, 3.0], size=(32, 2))
        g = rng.normal(size=32)
        h = np.full(32, 0.25)
        params = HyperParams(n_estimators=1, max_depth=4, min_child_hessian=0.0)
        tree = grow_tree(*presort(X), g, h, params)
        # walk the full training set down the tree (children of slot i at
        # 2i+1 and 2i+2): every split must route at least one row to each
        # child
        n = tree.feature.size
        counts = np.zeros(2 * n + 1, dtype=int)
        for x in X:
            i = 0
            counts[i] += 1
            while i < n and tree.feature[i] >= 0:
                i = 2 * i + 1 if x[tree.feature[i]] < tree.threshold[i] else 2 * i + 2
                counts[i] += 1
        for i in np.flatnonzero(tree.feature >= 0):
            assert counts[2 * i + 1] > 0
            assert counts[2 * i + 2] > 0

    def test_degenerate_midpoint_makes_a_leaf(self):
        # the midpoint of two adjacent representable values rounds to the
        # lower one, so the best split would send every row right
        X = np.array([[1.0], [np.nextafter(1.0, 2.0)]])
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        params = HyperParams(n_estimators=1, max_depth=2, min_child_hessian=0.0)
        assert find_best_split(*presort(X), g, h, params).threshold == 1.0
        tree = grow_tree(*presort(X), g, h, params)
        assert tree.n_leaves == 1
        assert _tree_values(tree, X) == [0.0, 0.0]

    def test_bits_pinned(self):
        """The inputs use numpy's generator and IEEE arithmetic only (no
        libm), so the tree's bits are the same on every platform."""
        rng = np.random.default_rng(2026)
        X = (rng.random((3000, 8)) * 100).round() / 100
        g = rng.random(3000) - 0.5
        h = rng.random(3000) * 0.25 + 0.01
        values = np.empty(3000)
        tree = grow_tree(*presort(X), g, h, HyperParams(n_estimators=1, max_depth=6), train_leaf_values=values)
        assert (tree.n_leaves, tree.depth) == (34, 6)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (tree.feature, tree.threshold, tree.leaf, values)))
        assert digest.hexdigest() == "96de70ee869f9852929f0622fd799521937485eec397018b846074c1f3966cd2"
