import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from windramp import DataError, HyperParams
from windramp.gbrt import bin_columns, softmax_gradients

from .conftest import grown_tree, tree_depth, window_rows
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


def _stump(X, g, h, params):
    """The root split (feature, threshold) of a depth-1 tree, or None, and
    the leaf weight each row of X reaches."""
    tree, _ = grown_tree(*bin_columns(*window_rows(X)), g, h, replace(params, max_depth=1))
    root = (int(tree.feature[0]), float(tree.threshold[0])) if tree.feature[0] >= 0 else None
    return root, _tree_values(tree, X)


def _side_weights(X, g, h, split, reg_lambda):
    """-G/(H+lambda) of the side of ``split`` each row falls on."""
    j, threshold, _ = split
    right = X[:, j] >= threshold
    return [-g[right == r].sum() / (h[right == r].sum() + reg_lambda) for r in right]


class TestFindBestSplit:
    """The root split of a depth-1 tree against hand examples and the
    brute-force oracle."""

    def test_two_row_hand_example(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        params = HyperParams(n_estimators=1, max_depth=1, reg_lambda=1.0, gamma=0.0,
                             min_child_hessian=0.0)
        root, weights = _stump(X, g, h, params)
        assert root == (0, 1.0)
        # gain 0.5 * (1/2 + 1/2 - 0/3) = 0.5 with leaf weights -G/(H+lambda) = -/+ 1/2
        assert brute_force_best_split(X, g, h, 1.0, 0.0, 0.0)[2] == pytest.approx(0.5, abs=1e-15)
        assert weights == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_pure_node_returns_none(self):
        X = np.array([[0.0], [1.0], [2.0]])
        g = np.zeros(3)
        h = np.ones(3)
        params = HyperParams(n_estimators=1, max_depth=1, min_child_hessian=0.0)
        assert _stump(X, g, h, params)[0] is None

    def test_constant_feature_returns_none(self):
        X = np.ones((4, 1))
        g = np.array([1.0, -1.0, 1.0, -1.0])
        h = np.ones(4)
        params = HyperParams(n_estimators=1, max_depth=1, min_child_hessian=0.0)
        assert _stump(X, g, h, params)[0] is None

    def test_min_child_hessian_blocks_split(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([1.0, -1.0])
        h = np.array([0.5, 0.5])
        params = HyperParams(n_estimators=1, max_depth=1, min_child_hessian=1.0)
        assert _stump(X, g, h, params)[0] is None

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # identical separating power on both features
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = np.array([2.0, -2.0])
        h = np.array([1.0, 1.0])
        params = HyperParams(n_estimators=1, max_depth=1, min_child_hessian=0.0)
        assert _stump(X, g, h, params)[0] == (0, 1.0)

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
        root, weights = _stump(X, g, h, params)
        slow = brute_force_best_split(X, g, h, 1.0, 0.0, mch)
        if slow is None:
            assert root is None
        else:
            assert root == slow[:2]
            assert weights == _side_weights(X, g, h, slow, 1.0)

    def test_matches_brute_force_with_gamma(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            X = rng.choice([0.0, 1.0, 2.0], size=(6, 2))
            g = rng.choice([-1.0, 0.5, 2.0], size=6)
            h = rng.choice([0.5, 1.0], size=6)
            params = HyperParams(n_estimators=1, max_depth=1, reg_lambda=1.0,
                                 gamma=0.25, min_child_hessian=0.0)
            root, weights = _stump(X, g, h, params)
            slow = brute_force_best_split(X, g, h, 1.0, 0.25, 0.0)
            if slow is None:
                assert root is None
            else:
                assert root == slow[:2]
                assert weights == _side_weights(X, g, h, slow, 1.0)


class TestGrowTree:
    def test_depth_one_leaf_weights(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        params = HyperParams(n_estimators=1, max_depth=1, reg_lambda=1.0,
                             min_child_hessian=0.0)
        tree, _ = grown_tree(*bin_columns(*window_rows(X)), g, h, params)
        assert tree_depth(tree) == 1
        assert tree.n_leaves == 2
        # w* = -G/(H+lambda) per side
        assert _tree_values(tree, X) == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_zero_gradients_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        g = np.zeros(3)
        h = np.ones(3)
        params = HyperParams(n_estimators=1, max_depth=3, min_child_hessian=0.0)
        tree, _ = grown_tree(*bin_columns(*window_rows(X)), g, h, params)
        assert tree.n_leaves == 1
        assert tree_depth(tree) == 0
        assert _tree_values(tree, X) == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    @pytest.mark.parametrize("max_depth", [1, 2, 3, 5])
    def test_depth_bound(self, max_depth):
        rng = np.random.default_rng(max_depth)
        X = rng.normal(size=(64, 3))
        g = rng.normal(size=64)
        h = np.full(64, 0.25)
        params = HyperParams(n_estimators=1, max_depth=max_depth, min_child_hessian=0.0)
        tree, _ = grown_tree(*bin_columns(*window_rows(X)), g, h, params)
        assert tree_depth(tree) <= max_depth

    def test_children_nonempty_with_zero_mch(self):
        rng = np.random.default_rng(5)
        X = rng.choice([0.0, 1.0, 2.0, 3.0], size=(32, 2))
        g = rng.normal(size=32)
        h = np.full(32, 0.25)
        params = HyperParams(n_estimators=1, max_depth=4, min_child_hessian=0.0)
        tree, _ = grown_tree(*bin_columns(*window_rows(X)), g, h, params)
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

    def test_adjacent_values_split_at_upper_value(self):
        # no threshold lies strictly between two adjacent representable
        # values; the upper one is stored, so the split routes as scored
        upper = np.nextafter(1.0, 2.0)
        X = np.array([[1.0], [upper]])
        g = np.array([1.0, -1.0])
        h = np.array([1.0, 1.0])
        params = HyperParams(n_estimators=1, max_depth=2, min_child_hessian=0.0)
        assert brute_force_best_split(X, g, h, 1.0, 0.0, 0.0)[:2] == (0, upper)
        tree, _ = grown_tree(*bin_columns(*window_rows(X)), g, h, params)
        assert (tree.feature[0], tree.threshold[0]) == (0, upper)
        assert tree.n_leaves == 2
        assert _tree_values(tree, X) == [-0.5, 0.5]

    def test_bits_pinned(self):
        """The inputs use numpy's generator and IEEE arithmetic only (no
        libm), so the tree's bits are the same on every platform. Each
        column holds at most 101 distinct values, so every value gets its
        own bin and the search is exact."""
        rng = np.random.default_rng(2026)
        X = (rng.random((3000, 8)) * 100).round() / 100
        g = rng.random(3000) - 0.5
        h = rng.random(3000) * 0.25 + 0.01
        tree, values = grown_tree(*bin_columns(*window_rows(X)), g, h, HyperParams(n_estimators=1, max_depth=6))
        assert (tree.n_leaves, tree_depth(tree)) == (34, 6)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (tree.feature, tree.threshold, tree.leaf, values)))
        assert digest.hexdigest() == "4852bf506f5b10bdf522564c1bdab1c57e05d6f79b52c4e13a54acc55d12ab0f"

    def test_many_distinct_values_split_on_column_values(self):
        """Columns with more than 256 distinct values are cut at quantiles:
        every stored threshold is a value of its column, and each training
        row's leaf weight is the one predict walks it to, bit for bit."""
        rng = np.random.default_rng(11)
        X = rng.normal(size=(2000, 4))
        X[:, 3] = rng.integers(0, 40, size=2000)  # few distinct values beside many
        g = rng.random(2000) - 0.5
        h = rng.random(2000) * 0.25 + 0.01
        tree, values = grown_tree(*bin_columns(*window_rows(X)), g, h, HyperParams(n_estimators=1, max_depth=5))
        splits = np.flatnonzero(tree.feature >= 0)
        assert splits.size > 1
        for slot in splits:
            assert tree.threshold[slot] in X[:, tree.feature[slot]]
        assert np.array_equal(values, _tree_values(tree, X))


class TestBinColumns:
    def test_few_distinct_values_get_one_bin_each(self):
        X = np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        bins, edges, _ = bin_columns(*window_rows(X))
        assert bins.dtype == np.uint8
        assert edges.tolist() == [[2.0, 3.0], [np.inf, np.inf]]
        assert bins.tolist() == [[2, 0, 1, 2], [0, 0, 0, 0]]

    def test_many_distinct_values_cut_at_quantiles_and_an_even_grid(self):
        rng = np.random.default_rng(5)
        # 2560 = 20 * 128 values, each twice: the quantile i/128 is the 20i-th
        # smallest, the second of a pair, and the 20i+1-th the first of the next.
        # 0..2558 and 2560, shuffled: every grid point min + i/128 of the
        # range, 20i, is a value of the column
        X = np.stack([np.repeat(rng.normal(size=1280), 2), rng.permutation(np.append(np.arange(2559.0), 2560.0))],
                     axis=1)
        bins, edges, _ = bin_columns(*window_rows(X))
        steps = np.arange(1, 128) / 128
        for j, column in enumerate(X.T):
            quantiles = np.quantile(column, steps, method="inverted_cdf")
            lo, hi = column.min(), column.max()
            grid = [column[column >= lo + step * (hi - lo)].min() for step in steps]
            cut = np.unique(np.concatenate([quantiles, grid]))
            cut = cut[cut > lo]
            assert np.array_equal(edges[j, :cut.size], cut)
            assert np.all(edges[j, cut.size:] == np.inf)
            # bin > k exactly when value >= edges[k]
            for k in range(cut.size):
                assert np.array_equal(bins[j] > k, column >= cut[k])
            assert bins[j].max() == cut.size

    def test_peak_memory_holds_no_copy_of_X(self):
        """Binning allocates the F x n uint8 bins and one column's sort at a
        time, under half of X's bytes; a transposed and a sorted copy of X
        would take more than twice them."""
        X = np.random.default_rng(0).normal(size=(20_000, 36))
        bin_columns(*window_rows(X[:300]))  # numpy imports some modules on first use: leave them out of the peak
        rows = window_rows(X)
        tracemalloc.start()
        try:
            bin_columns(*rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * X.nbytes
