"""Multi-class gradient boosted regression trees, built from scratch.

Second-order additive boosting against softmax cross-entropy: each round
fits one regression tree per class to the first/second loss derivatives at
the current scores. Trees grow level by level on feature columns cut into
at most 256 bins once per training run, one column at a time, gathered from
the dataset's series and binned from its sort order, which also counts
every tree's root rows per bin. One ``np.bincount`` per feature and sum
builds all the level's node histograms, and one vectorized pass searches
them. Training is serial and deterministic; ``evaluation.fit_horizons``
runs fits in parallel processes.

A model stores its T = rounds x classes trees (round-major, class-minor)
stacked, each in complete binary layout of depth D, the depth of its
deepest tree; each grows in place into its rows of a stack of depth
max_depth, then cut to D. ``feature`` and ``threshold`` (T x 2^D-1) hold
the internal slots: the children of slot i are slots 2i+1 and 2i+2, and a
row goes to the right one when x[feature] >= threshold. A slot that does
not split has feature -1 and sends every row left (its threshold is +inf in
memory). ``leaf`` (T x 2^D) holds the weights one level below, already
multiplied by the learning rate; a leaf shallower than D is copied to every
slot under it. A score is the base score plus one leaf of every tree.
Prediction walks all trees of a block of rows at once, in D vectorized steps.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, ModelFormatError, TrainingError, check_number
from .labeling import LabeledDataset

MODEL_FORMAT_VERSION = 3
_MODEL_KEYS = ("base_score", "feature", "leaf", "n_features", "threshold", "version")  # sorted

# the layout gives every tree 2^max_depth leaf slots
MAX_DEPTH = 12

# bins per column, so that a bin fits in a uint8
_MAX_BINS = 256

# (node, feature, bin) histogram cells held at once; wider levels go a block of nodes at a time
_HIST_CELLS = 1 << 20

# (row, tree) node ids walked per block of rows: small enough to stay in cache
_BLOCK_NODES = 16384


_FINITE_NON_NEGATIVE = (lambda v: 0 <= v <= sys.float_info.max, "finite and >= 0")

# HyperParams field -> (type, condition on the value, the condition in words)
HYPERPARAM_RULES = {
    "n_estimators": (int, lambda v: v >= 1, ">= 1"),
    "max_depth": (int, lambda v: 1 <= v <= MAX_DEPTH, f"in 1..{MAX_DEPTH}"),
    "reg_lambda": (float, *_FINITE_NON_NEGATIVE),
    "gamma": (float, *_FINITE_NON_NEGATIVE),
    "learning_rate": (float, lambda v: 0 < v <= 1, "in (0, 1]"),
    "min_child_hessian": (float, *_FINITE_NON_NEGATIVE),
}


@dataclass(frozen=True)
class HyperParams:
    """Boosting hyperparameters.

    ``reg_lambda`` is the L2 penalty on leaf weights, ``gamma`` the per-leaf
    penalty; together they define the regularizer gamma*leaves +
    (reg_lambda/2)*sum(weight^2) behind the closed-form leaf weight
    -G/(H+lambda) and the split gain.
    """

    n_estimators: int = 100
    max_depth: int = 4
    reg_lambda: float = 1.0
    gamma: float = 0.0
    learning_rate: float = 0.3
    min_child_hessian: float = 1.0

    def __post_init__(self):
        for name, rule in HYPERPARAM_RULES.items():
            check_number(name, getattr(self, name), *rule)


class Tree(NamedTuple):
    """One tree's rows of the stacked layout (see the module docstring); it
    stays for the benchmark's ``model_counts``, the one reader of its counts.

    Every split's parent splits too, so the slots with ``feature >= 0`` are
    exactly the tree's internal nodes; the counts ignore padding.
    """

    feature: np.ndarray
    threshold: np.ndarray
    leaf: np.ndarray

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature >= 0)) + 1

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_gradients(scores: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of cross-entropy w.r.t. each class score.

    ``targets`` are 0-based class indices. For row i with probabilities
    p = softmax(scores_i): g_c = p_c - 1[c == y_i], h_c = p_c (1 - p_c).
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if scores.ndim != 2:
        raise DataError(f"scores must be 2-d, got shape {scores.shape}")
    n, num_classes = scores.shape
    if targets.shape != (n,):
        raise DataError("targets length must match score rows")
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise DataError(f"target indices must be in 0..{num_classes - 1}")
    p = softmax(scores)
    g = p.copy()
    g[np.arange(n), targets] -= 1.0
    h = p * (1.0 - p)
    return g, h


def bin_columns(powers: np.ndarray, starts: np.ndarray, lag_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(bins, edges, counts)`` of the n x F feature matrix whose column j
    is ``powers[starts + j]`` (F = ``lag_count``), so that no matrix is
    built: the F x n uint8 bin of every value, each column's ascending bin
    edges (one row per column, padded with +inf), and each column's values
    per bin (padded with 0): every tree's root counts. An n x F matrix X is
    ``powers=X.ravel()``, ``starts=F*arange(n)``.

    Each column is gathered and binned alone, from its own sort order. One
    of at most _MAX_BINS distinct values gets an edge at each of them above
    its minimum. Any other gets, for i = 1..127, its inverted-CDF quantile
    i/128 and its smallest value at or above min + i/128 of its range:
    quantiles resolve dense values and the grid sparse ones, as on a ramp. A
    value's bin is the number of edges <= it, so bin > k exactly when
    value >= edges[k].
    """
    n, num_features = starts.size, lag_count
    half = _MAX_BINS // 2
    # the inverted-CDF quantile i/B of n sorted values is the ceil(n*i/B)-th smallest
    quantile_at = (n * np.arange(1, half) - 1) // half
    edges = np.full((num_features, _MAX_BINS - 1), np.inf)
    counts = np.zeros((num_features, _MAX_BINS), dtype=np.intp)
    bins = np.empty((num_features, n), dtype=np.uint8)
    for j in range(num_features):
        values = powers[starts + j]
        order = np.argsort(values)  # tied values share a bin, so their order does not matter
        column = values[order]
        cut = column[np.flatnonzero(column[1:] != column[:-1]) + 1]
        if cut.size >= _MAX_BINS:
            grid = column[0] + np.arange(1, half) / half * (column[-1] - column[0])
            cut = np.unique([column[quantile_at], column[np.searchsorted(column, grid).clip(max=n - 1)]])
            cut = cut[cut > column[0]]
        edges[j, :cut.size] = cut + 0.0  # +0.0: the sort may put either zero first among tied +-0.0
        counts[j, :cut.size + 1] = np.diff(np.searchsorted(column, cut), prepend=0, append=n)
        bins[j, order] = np.repeat(np.arange(cut.size + 1), counts[j, :cut.size + 1])
    # keep a padding column at least, so that every search has a candidate to reject
    width = max(1, np.isfinite(edges).sum(axis=1).max())
    return bins, edges[:, :width], counts[:, :width + 1]


def _histograms(columns: np.ndarray, node: np.ndarray, g: np.ndarray, h: np.ndarray, count: int, width: int,
                counts: np.ndarray | None = None):
    """Gradient, hessian and row-count histograms (count x 3 x F x width) of
    ``count`` nodes, from their rows' bins (F x m) and nodes (m). Given
    ``counts`` (F x width, one node), the row counts are copied from it."""
    hist = np.empty((count, 3, len(columns), width))
    sums = (g, h, None)
    if counts is not None:
        hist[:, 2], sums = counts, (g, h)
    base = node * width
    for j, column in enumerate(columns):
        index = base + column
        for c, weights in enumerate(sums):
            hist[:, c, j] = np.bincount(index, weights, count * width).reshape(count, width)
    return hist


def _best_splits(hist: np.ndarray, G: np.ndarray, H: np.ndarray, params: HyperParams):
    """``(feature, k)`` of each node's best split, sending bins <= k left;
    feature is -1 where no split has positive gain. A candidate needs rows
    left of it and in bin k+1, so each one is a distinct partition. Both
    children must satisfy the hessian-mass floor; ties on gain resolve to
    the lowest feature, then to the lowest k."""
    lam, floor = params.reg_lambda, params.min_child_hessian
    left = np.cumsum(hist[..., :-1], axis=-1)
    gl, hl = left[:, 0], left[:, 1]
    G, H = G[:, None, None], H[:, None, None]
    gr, hr = G - gl, H - hl
    valid = (left[:, 2] > 0) & (hist[:, 2, :, 1:] > 0)
    if floor > 0:
        valid &= (hl >= floor) & (hr >= floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam)) - params.gamma
    gain = np.where(valid & (gain > 0.0), gain, -np.inf).reshape(len(G), -1)  # NaN (0/0) is no gain
    best = np.argmax(gain, axis=1)
    feature, k = np.divmod(best, hist.shape[-1] - 1)
    return np.where(gain[np.arange(len(G)), best] > 0.0, feature, -1), k


def grow_tree(bins: np.ndarray, edges: np.ndarray, root_counts: np.ndarray, grad: np.ndarray, hess: np.ndarray,
              params: HyperParams, tree: Tree, train_leaf_values: np.ndarray) -> None:
    """Greedy growth to max_depth over the histograms of the columns
    :func:`bin_columns` binned, with their counts as the root's, one level at
    a time, in place into ``tree``: contiguous rows of 2^max_depth - 1 and
    2^max_depth slots of the complete binary layout, every slot of which it writes.

    Below the root only the smaller child of each split is built from its
    rows; the larger one is its parent's histogram minus the smaller one's.
    A level wider than _HIST_CELLS cells is built from the rows and searched
    one block of nodes at a time. A split after bin k stores threshold
    edges[k]. Leaf weight is -G/(H+lambda) from the node's own sums; ``train``
    applies the learning rate, not this function. Each training row's leaf
    weight is written into ``train_leaf_values``, sparing a full predict pass.
    """
    num_features, n = bins.shape
    if n == 0:
        raise TrainingError("cannot grow a tree on an empty row set")
    top, width = params.max_depth, edges.shape[1] + 1  # width: bins per feature
    feature, threshold, leaf = tree
    feature[:], threshold[:] = -1, np.inf
    step = max(1, _HIST_CELLS // (num_features * width))  # nodes per block of a level
    # the rows of the level's nodes, their gradient pairs and their nodes (indices into slots)
    rows, g, h, node = np.arange(n), grad, hess, np.zeros(n, dtype=np.intp)
    slots = np.zeros(1, dtype=np.intp)  # each node's slot in the layout
    hist = _histograms(bins, node, g, h, 1, width, root_counts)
    for depth in range(top + 1):
        count = slots.size
        G, H = np.bincount(node, g, count), np.bincount(node, h, count)
        split, k = np.full(count, -1), np.zeros(count, dtype=np.intp)
        for a in range(0, count if depth < top else 0, step):
            block = hist
            if block is None:
                mine = (node >= a) & (node < a + step)
                block = _histograms(bins[:, rows[mine]], node[mine] - a, g[mine], h[mine], min(step, count - a), width)
            split[a:a + step], k[a:a + step] = _best_splits(block, G[a:a + step], H[a:a + step], params)
        inner = split >= 0
        value = np.divide(-G, H + params.reg_lambda, out=np.zeros(count), where=H + params.reg_lambda > 0)
        done = ~inner[node]
        train_leaf_values[rows[done]] = value[node[done]]
        leaf.reshape(2**depth, -1)[slots[~inner] + 1 - 2**depth] = value[~inner, None]  # every leaf slot below
        n_splits = int(np.count_nonzero(inner))
        if not n_splits:
            break
        feature[slots[inner]], threshold[slots[inner]] = split[inner], edges[split[inner], k[inner]]
        # the children of the i-th split are nodes 2i (left) and 2i+1 (right)
        rank = np.cumsum(inner) - 1
        rows, g, h, node = rows[~done], g[~done], h[~done], node[~done]
        right = bins[split[node], rows] > k[node]
        node = 2 * rank[node] + right
        slots = (2 * slots[inner, None] + [1, 2]).ravel()
        if hist is None or 2 * n_splits > step or depth + 1 == top:
            hist = None
            continue
        sizes = np.bincount(node, minlength=2 * n_splits).reshape(n_splits, 2)
        small = sizes[:, 1] < sizes[:, 0]  # whether the right child is the smaller one; ties go left
        mine = right == small[node >> 1]
        built = _histograms(bins[:, rows[mine]], node[mine] >> 1, g[mine], h[mine], n_splits, width)
        hist = np.stack((built, hist[inner] - built), axis=1)  # (smaller, larger) child of each split
        hist[small] = hist[small, ::-1]
        hist = hist.reshape((2 * n_splits,) + hist.shape[2:])


@dataclass(frozen=True)
class GbrtModel:
    """Trained ensemble: one tree per class per boosting round, stacked in
    the layout the module docstring describes (``feature``, ``threshold``
    and ``leaf`` have one row per tree, round-major and class-minor, and
    the leaves are shrunken).

    Immutable after training; prediction is read-only and safe to call from
    many threads at once.
    """

    feature: np.ndarray
    threshold: np.ndarray
    leaf: np.ndarray
    base_score: np.ndarray
    n_features: int

    def __post_init__(self):
        for name, dtype in (("feature", np.int32), ("threshold", np.float64),
                            ("leaf", np.float64), ("base_score", np.float64)):
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __reduce__(self):
        # rebuilt through __init__, so a model unpickled from a worker is read-only too
        return GbrtModel, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def num_classes(self) -> int:
        return self.base_score.size

    @property
    def n_rounds(self) -> int:
        return self.leaf.shape[0] // self.num_classes

    @property
    def trees(self) -> tuple[tuple[Tree, ...], ...]:
        """Per-round tuples of per-class read-only tree views (padding included)."""
        views = [Tree(*rows) for rows in zip(self.feature, self.threshold, self.leaf)]
        c = self.num_classes
        return tuple(tuple(views[k:k + c]) for k in range(0, len(views), c))

    def _check_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"feature width mismatch: model expects {self.n_features}, got "
                f"{X.shape[1] if X.ndim == 2 else X.shape}"
            )
        if not np.isfinite(X).all():
            bad = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
            raise DataError(f"feature row {bad} holds a non-finite value")
        return X

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        """Accumulated per-class scores: the base score plus every tree's
        leaf weight, added round by round."""
        X = self._check_rows(X)
        n_trees, n_leaf_slots = self.leaf.shape
        # node ids index the flat arrays: slot i of tree t is t*(2^D-1) + i,
        # so its children 2i+1 and 2i+2 are 2*node + step (+1 to go right)
        first = np.arange(n_trees) * (n_leaf_slots - 1)
        step = 1 - first
        # after D steps node is t*(2^D-1) + 2^D-1 + j; leaf slot j of tree t is t*2^D + j
        to_leaf = np.arange(n_trees) + 1 - n_leaf_slots
        block = max(1, _BLOCK_NODES // n_trees)
        scores = np.empty((X.shape[0], self.num_classes))
        for start in range(0, X.shape[0], block):
            rows = X[start:start + block]
            row_first = np.arange(0, rows.size, self.n_features)[:, None]
            node = np.repeat(first[None], len(rows), axis=0)
            for _ in range(n_leaf_slots.bit_length() - 1):
                # feature -1 reads some finite value, never >= +inf: left
                right = rows.take(self.feature.take(node) + row_first) >= self.threshold.take(node)
                node *= 2
                node += step
                node += right
            terms = np.empty((len(rows), self.n_rounds + 1, self.num_classes))
            terms[:, 0] = self.base_score
            terms[:, 1:] = self.leaf.take(node + to_leaf).reshape(len(rows), self.n_rounds, -1)
            # cumsum adds in order, exactly as a loop over the rounds would
            scores[start:start + len(rows)] = np.cumsum(terms, axis=1)[:, -1]
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probability rows (each sums to 1)."""
        return softmax(self.raw_scores(X))

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        """1-based ramp class ids; exact probability ties go to the lower id."""
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64) + 1


def train(dataset: LabeledDataset, params: HyperParams | None = None) -> GbrtModel:
    """Fit a GBRT ensemble on a labeled dataset.

    Each round computes softmax gradients at the current scores, grows one
    tree per class against them, and accumulates its leaf weights times the
    learning rate; the model stores those products. The base score is the
    log of add-one-smoothed class priors. The feature columns are binned
    once, each gathered from the dataset's powers, so no feature matrix is
    built; a split after bin k stores threshold edges[k], a value of its
    column: predict routes the training rows exactly as their bins did.
    """
    params = params or HyperParams()
    n = len(dataset)
    if n == 0:
        raise TrainingError("empty dataset")
    num_classes = dataset.num_classes
    y = dataset.targets - 1
    if np.unique(y).size < 2:
        raise TrainingError("dataset has a single class; nothing to separate")

    counts = np.bincount(y, minlength=num_classes)
    base_score = np.log((counts + 1.0) / (n + num_classes))
    scores = np.tile(base_score, (n, 1))
    bins, edges, root_counts = bin_columns(dataset.powers, dataset.starts, dataset.horizon.lag_count)
    n_trees, top = params.n_estimators * num_classes, params.max_depth
    feature = np.empty((n_trees, 2**top - 1), dtype=np.int32)
    threshold = np.empty((n_trees, 2**top - 1))
    leaf = np.empty((n_trees, 2**top))
    trees = map(Tree, feature, threshold, leaf)  # row t of each array, one tree after another
    leaf_values = np.empty(n, dtype=np.float64)
    for _ in range(params.n_estimators):
        g, h = softmax_gradients(scores, y)
        for c in range(num_classes):
            grow_tree(bins, edges, root_counts, np.ascontiguousarray(g[:, c]), np.ascontiguousarray(h[:, c]),
                      params, next(trees), leaf_values)
            scores[:, c] += params.learning_rate * leaf_values

    # every tree was grown in a depth-max_depth layout: cut them all below the deepest split slot
    depth = int(np.flatnonzero((feature >= 0).any(axis=0)).max(initial=-1) + 1).bit_length()
    return GbrtModel(
        feature=feature[:, :2**depth - 1],
        threshold=threshold[:, :2**depth - 1],
        leaf=params.learning_rate * leaf[:, ::2 ** (top - depth)],
        base_score=base_score,
        n_features=dataset.horizon.lag_count,
    )


def serialize_model(model: GbrtModel) -> str:
    """Versioned JSON document; deserializing reproduces bit-identical
    predictions (floats use shortest round-trip formatting).

    Format 3 holds ``version``, ``n_features``, ``base_score`` (one entry
    per class) and the stacked layout of the module docstring as three
    lists with one row per tree, round-major and class-minor: ``feature``
    and ``threshold`` with 2^D - 1 entries each, ``leaf`` with 2^D weights
    already multiplied by the learning rate, so a score is a plain sum. A
    slot that does not split is written as feature -1 with threshold 0.
    """
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "base_score": model.base_score.tolist(),
        "n_features": model.n_features,
        "feature": model.feature.tolist(),
        "threshold": np.where(model.feature < 0, 0.0, model.threshold).tolist(),
        "leaf": model.leaf.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def deserialize_model(text: str) -> GbrtModel:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {version!r} (expected {MODEL_FORMAT_VERSION}); "
            "retrain the model"
        )
    # a format-2 field beside them would mean leaves stored without shrinkage
    if sorted(doc) != list(_MODEL_KEYS):
        raise ModelFormatError(f"a model document holds exactly the keys {', '.join(_MODEL_KEYS)}; got "
                               f"{', '.join(sorted(doc))}")
    n_features = doc["n_features"]
    try:
        base = np.asarray(doc["base_score"], dtype=np.float64)
        feature, threshold, leaf = (np.asarray(doc[key]) for key in ("feature", "threshold", "leaf"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if any(a.ndim != 2 or (a.size and a.dtype.kind not in kinds)
           for a, kinds in ((feature, "i"), (threshold, "iuf"), (leaf, "iuf"))):
        raise ModelFormatError("feature, threshold and leaf must be lists of equal-length lists of numbers")
    threshold, leaf = threshold.astype(np.float64), leaf.astype(np.float64)
    if isinstance(n_features, bool) or not isinstance(n_features, int) or not 1 <= n_features <= 2**31 - 1:
        raise ModelFormatError(f"n_features must be an integer in 1..2^31-1, got {n_features!r}")
    if base.ndim != 1 or base.size < 2:
        raise ModelFormatError(f"base_score must be a list of at least 2 class scores, got shape {base.shape}")
    num_classes = base.size
    if not (np.isfinite(base).all() and np.isfinite(threshold).all() and np.isfinite(leaf).all()):
        raise ModelFormatError("model holds a non-finite base score, threshold or leaf weight")
    n_trees, n_slots = feature.shape
    if n_trees == 0 or n_trees % num_classes:
        raise ModelFormatError(f"the model must hold a positive multiple of {num_classes} trees, got {n_trees}")
    if threshold.shape != feature.shape or leaf.shape != (n_trees, n_slots + 1) or n_slots & (n_slots + 1):
        raise ModelFormatError(f"layout must be T x 2^D-1 feature and threshold rows and T x 2^D leaf rows, "
                               f"got {feature.shape}, {threshold.shape} and {leaf.shape}")
    if n_slots.bit_length() > MAX_DEPTH:
        raise ModelFormatError(f"layout depth {n_slots.bit_length()} exceeds max_depth {MAX_DEPTH}")
    if feature.size and (feature.min() < -1 or feature.max() >= n_features):
        raise ModelFormatError(f"a tree splits on a feature outside 0..{n_features - 1}")
    if np.any((feature[:, 1:] >= 0) & (feature[:, (np.arange(1, n_slots) - 1) // 2] < 0)):
        raise ModelFormatError("a tree splits below a slot that does not split")
    for level in range(n_slots.bit_length()):
        blocks = leaf.reshape(n_trees, 2**level, -1)  # the leaf slots under each slot of the level
        if np.any((feature[:, 2**level - 1:2 * 2**level - 1, None] < 0) & (blocks != blocks[..., :1])):
            raise ModelFormatError("the leaf slots under a slot that does not split must hold one weight")
    model = GbrtModel(
        feature=feature,
        threshold=np.where(feature < 0, np.inf, threshold),
        leaf=leaf,
        base_score=base,
        n_features=n_features,
    )
    # every partial sum of a score is bounded by this sequential sum, so a
    # finite bound means predict can never overflow into inf or NaN
    largest = np.abs(model.leaf).max(axis=1).reshape(model.n_rounds, num_classes)
    with np.errstate(over="ignore"):
        bound = np.cumsum(np.vstack([np.abs(base), largest]), axis=0)[-1]
    if not np.isfinite(bound).all():
        raise ModelFormatError("leaf weights this large overflow the scores to infinity")
    return model


def save_model(model: GbrtModel, path) -> None:
    Path(path).write_text(serialize_model(model), encoding="utf-8")


def load_model(path) -> GbrtModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return deserialize_model(text)
