"""Multi-class gradient boosted regression trees, built from scratch.

Second-order additive boosting against softmax cross-entropy: each round
fits one regression tree per class to the first/second loss derivatives at
the current scores, using exact greedy split finding over pre-sorted
feature columns. The split search is feature-parallel with a deterministic
reduction, so training output is bit-identical for any worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ModelFormatError, TrainingError
from .labeling import LabeledDataset

MODEL_FORMAT_VERSION = 1

# below this many row*feature cells a node's split search runs serially;
# thread dispatch overhead dominates otherwise
_PARALLEL_MIN_CELLS = 16384


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
        if self.n_estimators < 1:
            raise ConfigError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if not (self.reg_lambda >= 0 and math.isfinite(self.reg_lambda)):
            raise ConfigError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0 < self.learning_rate <= 1):
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not (self.min_child_hessian >= 0 and math.isfinite(self.min_child_hessian)):
            raise ConfigError(f"min_child_hessian must be >= 0, got {self.min_child_hessian}")

    def to_dict(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "reg_lambda": self.reg_lambda,
            "gamma": self.gamma,
            "learning_rate": self.learning_rate,
            "min_child_hessian": self.min_child_hessian,
        }


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


class Tree:
    """One regression tree as flat node arrays (index 0 = root).

    ``feature[i] == -1`` marks a leaf whose value is ``weight[i]``; internal
    nodes route x[feature] < threshold to ``left``, else ``right``. Children
    always come after their parent, so every path from the root ends. The
    node format carries a default direction for rows with missing values;
    inputs are dense and finite, so it is always "left".
    """

    __slots__ = ("feature", "threshold", "left", "right", "weight", "depth")

    def __init__(self, feature, threshold, left, right, weight, depth):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.depth = int(depth)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight reached by every row (unscaled by the learning rate)."""
        node = np.zeros(X.shape[0], dtype=np.int32)
        for _ in range(self.depth):
            feat = self.feature[node]
            active = np.flatnonzero(feat >= 0)
            if active.size == 0:
                break
            cur = node[active]
            go_left = X[active, feat[active]] < self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
        return self.weight[node]

    def to_nodes(self) -> list[dict]:
        nodes = []
        for i in range(self.n_nodes):
            if self.feature[i] < 0:
                nodes.append({"weight": float(self.weight[i])})
            else:
                nodes.append({
                    "feature": int(self.feature[i]),
                    "threshold": float(self.threshold[i]),
                    "left": int(self.left[i]),
                    "right": int(self.right[i]),
                    "default": "left",
                })
        return nodes

    @classmethod
    def from_nodes(cls, nodes: list[dict]) -> "Tree":
        if not nodes:
            raise ModelFormatError("tree with no nodes")
        n = len(nodes)
        feature = np.full(n, -1, dtype=np.int32)
        threshold = np.zeros(n, dtype=np.float64)
        left = np.zeros(n, dtype=np.int32)
        right = np.zeros(n, dtype=np.int32)
        weight = np.zeros(n, dtype=np.float64)
        for i, node in enumerate(nodes):
            if "weight" in node:
                weight[i] = float(node["weight"])
            else:
                try:
                    feature[i] = int(node["feature"])
                    threshold[i] = float(node["threshold"])
                    left[i] = int(node["left"])
                    right[i] = int(node["right"])
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ModelFormatError(f"malformed tree node {i}: {node!r}") from exc
                if feature[i] < 0:
                    raise ModelFormatError(f"tree node {i} has negative feature {feature[i]}")
                if not (i < left[i] < n and i < right[i] < n):
                    raise ModelFormatError(
                        f"tree node {i} has child index out of range {i + 1}..{n - 1}"
                    )
        return cls(feature, threshold, left, right, weight, _tree_depth(feature, left, right))


def _tree_depth(feature, left, right) -> int:
    depth = 0
    stack = [(0, 0)]
    while stack:
        i, d = stack.pop()
        if feature[i] < 0:
            depth = max(depth, d)
        else:
            stack.append((int(left[i]), d + 1))
            stack.append((int(right[i]), d + 1))
    return depth


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


def _feature_best(values: np.ndarray, grad: np.ndarray, hess: np.ndarray, params: HyperParams):
    """Best (gain, threshold) on one pre-sorted feature column, or None.

    Candidate thresholds are midpoints between consecutive distinct values;
    both children must satisfy the hessian-mass floor; ties on gain resolve
    to the lowest threshold.
    """
    m = values.size
    if m < 2:
        return None
    cg = np.cumsum(grad)
    ch = np.cumsum(hess)
    g_total, h_total = cg[-1], ch[-1]
    gl, hl = cg[:-1], ch[:-1]
    gr, hr = g_total - gl, h_total - hl
    valid = values[1:] > values[:-1]
    if params.min_child_hessian > 0:
        valid &= (hl >= params.min_child_hessian) & (hr >= params.min_child_hessian)
    if not valid.any():
        return None
    lam = params.reg_lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = g_total * g_total / (h_total + lam)
        gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - params.gamma
    gain[~valid] = -np.inf
    if lam == 0.0 and params.min_child_hessian == 0.0:
        np.nan_to_num(gain, nan=-np.inf, copy=False)  # 0/0 at zero-hessian children
    k = int(np.argmax(gain))
    best = float(gain[k])
    if not best > 0.0:
        return None
    return best, float(0.5 * (values[k] + values[k + 1]))


def _reduce_feature_results(results) -> Split | None:
    best: Split | None = None
    for j, res in enumerate(results):
        if res is None:
            continue
        gain, threshold = res
        if best is None or gain > best.gain:
            best = Split(feature=j, threshold=threshold, gain=gain)
    return best


def _search_columns(columns: list, params: HyperParams, executor) -> Split | None:
    """Per-feature best over pre-gathered (values, grad, hess) columns,
    reduced in feature order (ties -> lowest feature index). Worker threads
    each take a contiguous block of features; scheduling cannot change the
    result because every per-feature computation is self-contained."""
    num_features = len(columns)
    if executor is not None and columns[0][0].size * num_features >= _PARALLEL_MIN_CELLS:
        blocks = np.array_split(np.arange(num_features), getattr(executor, "_max_workers", 2))
        futures = [
            executor.submit(
                lambda idx: [_feature_best(*columns[j], params) for j in idx], block
            )
            for block in blocks if block.size
        ]
        results: list = []
        for fut in futures:
            results.extend(fut.result())
    else:
        results = [_feature_best(*col, params) for col in columns]
    return _reduce_feature_results(results)


def find_best_split(
    X: np.ndarray,
    node_sorted: list[np.ndarray],
    grad: np.ndarray,
    hess: np.ndarray,
    params: HyperParams,
    executor: ThreadPoolExecutor | None = None,
) -> Split | None:
    """Exact greedy split over all features of one node.

    ``node_sorted[j]`` holds the node's row indices sorted by feature j;
    per-feature winners are computed independently (optionally on worker
    threads) and reduced in feature order, so ties resolve to the lowest
    feature index and the result never depends on scheduling.
    """
    columns = [
        (X[idx, j], grad[idx], hess[idx]) for j, idx in enumerate(node_sorted)
    ]
    return _search_columns(columns, params, executor)


def grow_tree(
    X: np.ndarray,
    node_sorted: list[np.ndarray],
    grad: np.ndarray,
    hess: np.ndarray,
    params: HyperParams,
    executor: ThreadPoolExecutor | None = None,
    train_leaf_values: np.ndarray | None = None,
) -> Tree:
    """Greedy depth-first growth to max_depth.

    Leaf weight is -G/(H+lambda); the learning rate is applied when scores
    are accumulated, not here. Each node carries its rows pre-sorted per
    feature together with the matching feature values and gradient pairs,
    so descending is pure boolean partitioning (order, hence every floating
    point sum, is identical no matter how the search is scheduled). When
    ``train_leaf_values`` is given, each training row's leaf weight is
    written into it, sparing a full predict pass.
    """
    if node_sorted[0].size == 0:
        raise TrainingError("cannot grow a tree on an empty row set")
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    weight: list[float] = []
    lam = params.reg_lambda
    route = np.zeros(X.shape[0], dtype=bool)
    max_depth_seen = 0

    def add_leaf(rows: np.ndarray, g_sum: float, h_sum: float, depth: int) -> int:
        nonlocal max_depth_seen
        max_depth_seen = max(max_depth_seen, depth)
        denom = h_sum + lam
        value = -g_sum / denom if denom > 0 else 0.0
        if train_leaf_values is not None:
            train_leaf_values[rows] = value
        feature.append(-1)
        threshold.append(0.0)
        left.append(0)
        right.append(0)
        weight.append(value)
        return len(feature) - 1

    def build(idx_cols, val_cols, g_cols, h_cols, depth: int) -> int:
        rows = idx_cols[0]
        g_sum = float(g_cols[0].sum())
        h_sum = float(h_cols[0].sum())
        if depth >= params.max_depth:
            return add_leaf(rows, g_sum, h_sum, depth)
        split = _search_columns(list(zip(val_cols, g_cols, h_cols)), params, executor)
        if split is None:
            return add_leaf(rows, g_sum, h_sum, depth)
        j = split.feature
        route[idx_cols[j]] = val_cols[j] < split.threshold
        masks = [route[idx] for idx in idx_cols]
        lefts = tuple(
            ([c[m] for c, m in zip(cols, masks)])
            for cols in (idx_cols, val_cols, g_cols, h_cols)
        )
        rights = tuple(
            ([c[~m] for c, m in zip(cols, masks)])
            for cols in (idx_cols, val_cols, g_cols, h_cols)
        )
        if lefts[0][0].size == 0 or rights[0][0].size == 0:
            # degenerate midpoint (adjacent representable values)
            return add_leaf(rows, g_sum, h_sum, depth)
        idx_cols = val_cols = g_cols = h_cols = masks = None  # free before recursing
        node = len(feature)
        feature.append(j)
        threshold.append(split.threshold)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        left[node] = build(*lefts, depth + 1)
        lefts = None
        right[node] = build(*rights, depth + 1)
        return node

    val_cols = [X[idx, j] for j, idx in enumerate(node_sorted)]
    g_cols = [grad[idx] for idx in node_sorted]
    h_cols = [hess[idx] for idx in node_sorted]
    build(list(node_sorted), val_cols, g_cols, h_cols, 0)
    return Tree(feature, threshold, left, right, weight, max_depth_seen)


@dataclass(frozen=True)
class GbrtModel:
    """Trained ensemble: one tree per class per boosting round.

    Immutable after training; prediction is read-only and safe to call from
    many threads at once.
    """

    trees: tuple[tuple[Tree, ...], ...]
    num_classes: int
    learning_rate: float
    base_score: np.ndarray
    hyperparams: HyperParams
    n_features: int

    def __post_init__(self):
        base = np.ascontiguousarray(self.base_score, dtype=np.float64)
        base.setflags(write=False)
        object.__setattr__(self, "base_score", base)

    @property
    def n_rounds(self) -> int:
        return len(self.trees)

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
        """Accumulated per-class scores (base score + shrunken tree outputs)."""
        X = self._check_rows(X)
        scores = np.tile(self.base_score, (X.shape[0], 1))
        for rnd in self.trees:
            for c, tree in enumerate(rnd):
                scores[:, c] += self.learning_rate * tree.predict(X)
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probability rows (each sums to 1)."""
        return softmax(self.raw_scores(X))

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        """1-based ramp class ids; exact probability ties go to the lower id."""
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64) + 1


def train(
    dataset: LabeledDataset,
    params: HyperParams | None = None,
    workers: int | None = 1,
) -> GbrtModel:
    """Fit a GBRT ensemble on a labeled dataset.

    Each round computes softmax gradients at the current scores, grows one
    tree per class against them, and accumulates learning_rate-scaled leaf
    weights. The base score is the log of add-one-smoothed class priors.
    Output is bit-identical for any ``workers`` value (None = all cores).
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
    sorted_cols = [
        np.argsort(X[:, j], kind="stable").astype(np.int64) for j in range(X.shape[1])
    ]

    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")

    rounds: list[tuple[Tree, ...]] = []
    executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    leaf_values = np.empty(n, dtype=np.float64)
    try:
        for _ in range(params.n_estimators):
            g, h = softmax_gradients(scores, y)
            round_trees = []
            for c in range(num_classes):
                tree = grow_tree(
                    X, sorted_cols, np.ascontiguousarray(g[:, c]),
                    np.ascontiguousarray(h[:, c]), params, executor,
                    train_leaf_values=leaf_values,
                )
                round_trees.append(tree)
                scores[:, c] += params.learning_rate * leaf_values
            rounds.append(tuple(round_trees))
    finally:
        if executor is not None:
            executor.shutdown()

    return GbrtModel(
        trees=tuple(rounds),
        num_classes=num_classes,
        learning_rate=params.learning_rate,
        base_score=base_score,
        hyperparams=params,
        n_features=X.shape[1],
    )


def serialize_model(model: GbrtModel) -> str:
    """Versioned JSON document; deserializing reproduces bit-identical
    predictions (floats use shortest round-trip formatting)."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "num_classes": model.num_classes,
        "learning_rate": model.learning_rate,
        "base_score": [float(b) for b in model.base_score],
        "hyperparams": model.hyperparams.to_dict(),
        "n_features": model.n_features,
        "rounds": [[tree.to_nodes() for tree in rnd] for rnd in model.trees],
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
            f"unsupported model version {version!r} (expected {MODEL_FORMAT_VERSION})"
        )
    try:
        num_classes = int(doc["num_classes"])
        hp = HyperParams(**doc["hyperparams"])
        base = np.asarray(doc["base_score"], dtype=np.float64)
        rounds = tuple(
            tuple(Tree.from_nodes(nodes) for nodes in rnd) for rnd in doc["rounds"]
        )
        model = GbrtModel(
            trees=rounds,
            num_classes=num_classes,
            learning_rate=float(doc["learning_rate"]),
            base_score=base,
            hyperparams=hp,
            n_features=int(doc["n_features"]),
        )
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if num_classes < 2 or model.n_features < 1:
        raise ModelFormatError(
            f"num_classes must be >= 2 and n_features >= 1, got {num_classes} and {model.n_features}"
        )
    if base.shape != (num_classes,):
        raise ModelFormatError("base_score length must equal num_classes")
    if model.learning_rate != hp.learning_rate:
        raise ModelFormatError(
            f"learning_rate {model.learning_rate} differs from hyperparams.learning_rate {hp.learning_rate}"
        )
    trees = [tree for rnd in model.trees for tree in rnd]
    if not (np.isfinite(base).all() and all(
        np.isfinite(t.threshold).all() and np.isfinite(t.weight).all() for t in trees
    )):
        raise ModelFormatError("model holds a non-finite base score, threshold or leaf weight")
    if any(len(rnd) != num_classes for rnd in model.trees):
        raise ModelFormatError("every round must hold one tree per class")
    if any(tree.feature.max() >= model.n_features for tree in trees):
        raise ModelFormatError(f"a tree splits on a feature outside 0..{model.n_features - 1}")
    return model


def save_model(model: GbrtModel, path) -> None:
    Path(path).write_text(serialize_model(model), encoding="utf-8")


def load_model(path) -> GbrtModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return deserialize_model(text)
