"""Multi-class gradient boosted regression trees, built from scratch.

Second-order additive boosting against softmax cross-entropy: each round
fits one regression tree per class to the first/second loss derivatives at
the current scores, using exact greedy split finding over feature columns
sorted once per training run. Trees grow one level at a time: every node of
a level holds one column range of the sorted columns, and one partition
pass per level moves all their rows into the next level's ranges. Training
is serial and deterministic; ``evaluation.grid_search`` runs whole fits in
parallel.

A model stores its T = rounds x classes trees (round-major, class-minor)
stacked, each in complete binary layout of depth D, the depth of its
deepest tree. ``feature`` and ``threshold`` (T x 2^D-1) hold the internal
slots: the children of slot i are slots 2i+1 and 2i+2, and a row goes to
the right one when x[feature] >= threshold. A slot that does not split has
feature -1 and sends every row left (its threshold is +inf in memory).
``leaf`` (T x 2^D) holds the weights one level below; a leaf shallower than
D is copied to every slot under it. Prediction walks all trees of a block
of rows at once, in D vectorized steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, ModelFormatError, TrainingError
from .labeling import LabeledDataset

MODEL_FORMAT_VERSION = 2

# the layout gives every tree 2^max_depth leaf slots
MAX_DEPTH = 12

# (feature, row) cells searched per block of a node: small enough to stay in cache
_SEARCH_CELLS = 32768

# (row, tree) node ids walked per block of rows: small enough to stay in cache
_BLOCK_NODES = 16384


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
        for name in ("n_estimators", "max_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("reg_lambda", "gamma", "learning_rate", "min_child_hessian"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.n_estimators < 1:
            raise ConfigError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise ConfigError(f"max_depth must be in 1..{MAX_DEPTH}, got {self.max_depth}")
        if not (self.reg_lambda >= 0 and math.isfinite(self.reg_lambda)):
            raise ConfigError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0 < self.learning_rate <= 1):
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not (self.min_child_hessian >= 0 and math.isfinite(self.min_child_hessian)):
            raise ConfigError(f"min_child_hessian must be >= 0, got {self.min_child_hessian}")


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


class Tree(NamedTuple):
    """One tree in complete binary layout (see the module docstring).

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

    @property
    def depth(self) -> int:
        splits = np.flatnonzero(self.feature >= 0)
        return int(splits[-1] + 1).bit_length() if splits.size else 0


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


def presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values)``, both F x n: row j of ``order`` holds the row ids
    stable-sorted by feature j, row j of ``values`` the sorted values."""
    columns = np.ascontiguousarray(X.T, dtype=np.float64)
    order = np.argsort(columns, axis=1, kind="stable").astype(np.int64, copy=False)
    return order, np.take_along_axis(columns, order, axis=1)


def _node_split(values: np.ndarray, G: np.ndarray, H: np.ndarray, params: HyperParams) -> Split | None:
    """Exact greedy split of one node, or None.

    Row j of the F x m blocks holds the node's values of feature j in
    ascending order and the gradient pairs of the same rows. Candidate
    thresholds are midpoints between consecutive distinct values; both
    children must satisfy the hessian-mass floor; ties on gain resolve to
    the lowest threshold, then to the lowest feature index.
    """
    num_features, m = values.shape
    if m < 2:
        return None
    lam, floor = params.reg_lambda, params.min_child_hessian
    best_gain = np.empty(num_features)
    best_k = np.empty(num_features, dtype=np.int64)
    step = max(1, _SEARCH_CELLS // m)
    for f in range(0, num_features, step):
        cg = np.cumsum(G[f:f + step], axis=1)
        ch = np.cumsum(H[f:f + step], axis=1)
        g_total, h_total = cg[:, -1:], ch[:, -1:]
        gl, hl = cg[:, :-1], ch[:, :-1]
        gr, hr = g_total - gl, h_total - hl
        v = values[f:f + step]
        valid = v[:, 1:] > v[:, :-1]
        if floor > 0:
            valid &= (hl >= floor) & (hr >= floor)
        with np.errstate(divide="ignore", invalid="ignore"):
            parent = g_total * g_total / (h_total + lam)
            gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - params.gamma
        gain[~valid] = -np.inf
        if lam == 0.0 and floor == 0.0:
            np.nan_to_num(gain, nan=-np.inf, copy=False)  # 0/0 at zero-hessian children
        k = np.argmax(gain, axis=1)
        best_k[f:f + step] = k
        best_gain[f:f + step] = np.take_along_axis(gain, k[:, None], axis=1)[:, 0]
    best_gain[~(best_gain > 0.0)] = -np.inf
    j = int(np.argmax(best_gain))
    if not best_gain[j] > 0.0:
        return None
    k = best_k[j]
    return Split(feature=j, threshold=float(0.5 * (values[j, k] + values[j, k + 1])),
                 gain=float(best_gain[j]))


def find_best_split(
    order: np.ndarray,
    values: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    params: HyperParams,
) -> Split | None:
    """Exact greedy split over all features of one node, given the node's
    rows pre-sorted per feature as :func:`presort` returns them."""
    return _node_split(values, grad.take(order), hess.take(order), params)


def grow_tree(
    order: np.ndarray,
    values: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    params: HyperParams,
    train_leaf_values: np.ndarray | None = None,
) -> Tree:
    """Greedy growth to max_depth, one level at a time, straight into the
    complete binary layout of depth max_depth.

    ``order`` and ``values`` are the rows pre-sorted per feature, as
    :func:`presort` returns them. Within a level each node owns one column
    range, the same in every feature row, and holds its rows in the order a
    stable partition of the root's sort gives, so every floating-point sum
    is the same as a node-by-node search would compute. Leaf weight is
    -G/(H+lambda); the learning rate is applied when scores are accumulated,
    not here. When ``train_leaf_values`` is given, each training row's leaf
    weight is written into it, sparing a full predict pass.
    """
    if order.shape[1] == 0:
        raise TrainingError("cannot grow a tree on an empty row set")
    top = params.max_depth
    feature = np.full(2**top - 1, -1, dtype=np.int32)
    threshold = np.full(2**top - 1, np.inf)
    leaf = np.zeros(2**top)
    lam = params.reg_lambda
    side = np.empty(grad.size, dtype=np.int8)  # per row: 0 left, 1 right, 2 leaf
    level = [(0, 0, order.shape[1])]  # (slot, start, stop) of each node
    for depth in range(top + 1):
        G, H = grad.take(order), hess.take(order)
        splits = []
        for slot, a, b in level:
            split = _node_split(values[:, a:b], G[:, a:b], H[:, a:b], params) if depth < top else None
            if split is not None:
                j = split.feature
                right = values[j, a:b] >= split.threshold
                n_right = int(np.count_nonzero(right))
                if 0 < n_right < b - a:  # else a degenerate midpoint (adjacent representable values)
                    side[order[j, a:b]] = right
                    feature[slot], threshold[slot] = j, split.threshold
                    splits.append((slot, (b - a - n_right, n_right)))
                    continue
            denom = float(H[0, a:b].sum()) + lam
            value = -float(G[0, a:b].sum()) / denom if denom > 0 else 0.0
            if train_leaf_values is not None:
                train_leaf_values[order[0, a:b]] = value
            side[order[0, a:b]] = 2
            span = 2 ** (top - depth)  # leaf slots under this one
            first = (slot + 1 - 2**depth) * span
            leaf[first:first + span] = value
        if not splits:
            break
        # left children first, then right ones; each keeps its rows' order.
        # The leaves of the last level need only their rows: feature row 0
        if depth == top - 1:
            order = order[:1]
        codes = side.take(order).ravel()
        keep = np.concatenate(
            [np.flatnonzero(codes == s).reshape(len(order), -1) for s in (0, 1)], axis=1
        )
        order = order.ravel().take(keep)
        values = values.ravel().take(keep) if depth < top - 1 else None
        level, start = [], 0
        for child in (0, 1):
            for slot, counts in splits:
                level.append((2 * slot + 1 + child, start, start + counts[child]))
                start += counts[child]
    return Tree(feature, threshold, leaf)


@dataclass(frozen=True)
class GbrtModel:
    """Trained ensemble: one tree per class per boosting round, stacked in
    the layout the module docstring describes (``feature``, ``threshold``
    and ``leaf`` have one row per tree, round-major and class-minor).

    Immutable after training; prediction is read-only and safe to call from
    many threads at once.
    """

    feature: np.ndarray
    threshold: np.ndarray
    leaf: np.ndarray
    num_classes: int
    learning_rate: float
    base_score: np.ndarray
    hyperparams: HyperParams
    n_features: int

    def __post_init__(self):
        for name, dtype in (("feature", np.int32), ("threshold", np.float64),
                            ("leaf", np.float64), ("base_score", np.float64)):
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

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
        shrunken leaf weight, added round by round."""
        X = self._check_rows(X)
        n_trees, n_leaf_slots = self.leaf.shape
        # node ids index the flat arrays: slot i of tree t is t*(2^D-1) + i,
        # so its children 2i+1 and 2i+2 are 2*node + step (+1 to go right)
        first = np.arange(n_trees) * (n_leaf_slots - 1)
        step = 1 - first
        # after D steps node is t*(2^D-1) + 2^D-1 + j; leaf slot j of tree t is t*2^D + j
        to_leaf = np.arange(n_trees) + 1 - n_leaf_slots
        scaled = self.learning_rate * self.leaf
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
            terms[:, 1:] = scaled.take(node + to_leaf).reshape(len(rows), self.n_rounds, -1)
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
    tree per class against them, and accumulates learning_rate-scaled leaf
    weights. The base score is the log of add-one-smoothed class priors.
    The feature columns are sorted once, and every tree starts from them.
    """
    params = params or HyperParams()
    X = dataset.features
    n = len(dataset)
    if n == 0:
        raise TrainingError("empty dataset")
    if not np.all(np.isfinite(X)):
        raise TrainingError("non-finite feature values")
    num_classes = dataset.num_classes
    y = dataset.targets - 1
    if np.unique(y).size < 2:
        raise TrainingError("dataset has a single class; nothing to separate")

    counts = np.bincount(y, minlength=num_classes)
    base_score = np.log((counts + 1.0) / (n + num_classes))
    scores = np.tile(base_score, (n, 1))
    order, values = presort(X)
    trees: list[Tree] = []
    leaf_values = np.empty(n, dtype=np.float64)
    for _ in range(params.n_estimators):
        g, h = softmax_gradients(scores, y)
        for c in range(num_classes):
            trees.append(grow_tree(
                order, values, np.ascontiguousarray(g[:, c]), np.ascontiguousarray(h[:, c]),
                params, train_leaf_values=leaf_values,
            ))
            scores[:, c] += params.learning_rate * leaf_values

    # every tree was grown in a depth-max_depth layout: cut them all to the deepest one
    depth = max(tree.depth for tree in trees)
    return GbrtModel(
        feature=[tree.feature[:2**depth - 1] for tree in trees],
        threshold=[tree.threshold[:2**depth - 1] for tree in trees],
        leaf=[tree.leaf[:: 2 ** (params.max_depth - depth)] for tree in trees],
        num_classes=num_classes,
        learning_rate=params.learning_rate,
        base_score=base_score,
        hyperparams=params,
        n_features=X.shape[1],
    )


def serialize_model(model: GbrtModel) -> str:
    """Versioned JSON document; deserializing reproduces bit-identical
    predictions (floats use shortest round-trip formatting).

    Format 2 holds the stacked layout of the module docstring as three
    lists with one row per tree, round-major and class-minor: ``feature``
    and ``threshold`` with 2^D - 1 entries each, ``leaf`` with 2^D. A slot
    that does not split is written as feature -1 with threshold 0.
    """
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "num_classes": model.num_classes,
        "learning_rate": model.learning_rate,
        "base_score": model.base_score.tolist(),
        "hyperparams": asdict(model.hyperparams),
        "n_features": model.n_features,
        "feature": model.feature.tolist(),
        "threshold": np.where(model.feature < 0, 0.0, model.threshold).tolist(),
        "leaf": model.leaf.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def deserialize_model(text: str) -> GbrtModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {version!r} (expected {MODEL_FORMAT_VERSION}); "
            "retrain the model"
        )
    try:
        num_classes, n_features = doc["num_classes"], doc["n_features"]
        hp = HyperParams(**doc["hyperparams"])
        base = np.asarray(doc["base_score"], dtype=np.float64)
        learning_rate = float(doc["learning_rate"])
        feature, threshold, leaf = (np.asarray(doc[key]) for key in ("feature", "threshold", "leaf"))
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if any(a.ndim != 2 or (a.size and a.dtype.kind not in kinds)
           for a, kinds in ((feature, "i"), (threshold, "iuf"), (leaf, "iuf"))):
        raise ModelFormatError("feature, threshold and leaf must be lists of equal-length lists of numbers")
    threshold, leaf = threshold.astype(np.float64), leaf.astype(np.float64)
    for key, count in (("num_classes", num_classes), ("n_features", n_features)):
        if isinstance(count, bool) or not isinstance(count, int):
            raise ModelFormatError(f"{key} must be an integer, got {count!r}")
    if num_classes < 2 or not 1 <= n_features <= np.iinfo(np.int32).max:
        raise ModelFormatError(f"num_classes must be >= 2 and n_features in 1..2^31-1, got "
                               f"{num_classes} and {n_features}")
    if base.shape != (num_classes,):
        raise ModelFormatError("base_score length must equal num_classes")
    if learning_rate != hp.learning_rate:
        raise ModelFormatError(f"learning_rate {learning_rate} differs from hyperparams.learning_rate "
                               f"{hp.learning_rate}")
    if not (np.isfinite(base).all() and np.isfinite(threshold).all() and np.isfinite(leaf).all()):
        raise ModelFormatError("model holds a non-finite base score, threshold or leaf weight")
    n_trees, n_slots = feature.shape
    if n_trees == 0 or n_trees % num_classes:
        raise ModelFormatError(f"the model must hold a positive multiple of {num_classes} trees, got {n_trees}")
    if threshold.shape != feature.shape or leaf.shape != (n_trees, n_slots + 1) or n_slots & (n_slots + 1):
        raise ModelFormatError(f"layout must be T x 2^D-1 feature and threshold rows and T x 2^D leaf rows, "
                               f"got {feature.shape}, {threshold.shape} and {leaf.shape}")
    if n_slots.bit_length() > hp.max_depth:
        raise ModelFormatError(f"layout depth {n_slots.bit_length()} exceeds max_depth {hp.max_depth}")
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
        num_classes=num_classes,
        learning_rate=learning_rate,
        base_score=base,
        hyperparams=hp,
        n_features=n_features,
    )
    # every partial sum of a score is bounded by this sequential sum, so a
    # finite bound means predict can never overflow into inf or NaN
    largest = np.abs(model.leaf).max(axis=1).reshape(model.n_rounds, num_classes)
    with np.errstate(over="ignore"):
        bound = np.cumsum(np.vstack([np.abs(base), learning_rate * largest]), axis=0)[-1]
    if not np.isfinite(bound).all():
        raise ModelFormatError("leaf weights this large overflow the scores to infinity")
    return model


def save_model(model: GbrtModel, path) -> None:
    Path(path).write_text(serialize_model(model), encoding="utf-8")


def load_model(path) -> GbrtModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return deserialize_model(text)
