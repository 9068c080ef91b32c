"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: plain loops, direct formula
substitution, no shared code with the package internals.
"""

import csv
import math

import mpmath
import numpy as np


def cross_entropy_loss(scores, targets):
    """Sum of -log softmax(scores)[target] over rows, via direct exp sums."""
    total = 0.0
    for row, y in zip(scores, targets):
        m = max(row)
        denom = sum(math.exp(v - m) for v in row)
        total += -(row[y] - m - math.log(denom))
    return total


def _mp_loss(row, y):
    denom = mpmath.fsum(mpmath.exp(v) for v in row)
    return mpmath.log(denom) - row[y]


def finite_difference_gradients(scores, targets, eps=1e-6):
    """Central-difference g and h of the cross-entropy at each score entry.

    The loss is evaluated in 50-digit arithmetic: at eps = 1e-6 the second
    difference divides by 1e-12, so float64 rounding noise would swamp small
    curvatures and the comparison would test the oracle, not the code.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, num_classes = scores.shape
    g = np.zeros_like(scores)
    h = np.zeros_like(scores)
    with mpmath.workdps(50):
        delta = mpmath.mpf(eps)
        for i in range(n):
            row = [mpmath.mpf(float(v)) for v in scores[i]]
            y = int(targets[i])
            f_mid = _mp_loss(row, y)
            for c in range(num_classes):
                up = list(row)
                down = list(row)
                up[c] = row[c] + delta
                down[c] = row[c] - delta
                f_up = _mp_loss(up, y)
                f_down = _mp_loss(down, y)
                g[i, c] = float((f_up - f_down) / (2 * delta))
                h[i, c] = float((f_up - 2 * f_mid + f_down) / (delta * delta))
    return g, h


def brute_force_best_split(X, g, h, reg_lambda, gamma, min_child_hessian):
    """Enumerate every (feature, threshold) pair directly.

    Each candidate threshold is a value of the column above its smallest
    one: rows below it go left. Returns (feature, threshold, gain) for the
    best positive-gain split under the tie-break lowest feature index then
    lowest threshold, or None.
    """
    X = np.asarray(X, dtype=np.float64)
    n, num_features = X.shape

    def leaf_score(g_sum, h_sum):
        return g_sum * g_sum / (h_sum + reg_lambda)

    g_total = 0.0
    h_total = 0.0
    for i in range(n):
        g_total += float(g[i])
        h_total += float(h[i])

    best = None
    for j in range(num_features):
        values = sorted(set(float(v) for v in X[:, j]))
        for threshold in values[1:]:
            gl = hl = 0.0
            gr = hr = 0.0
            for i in range(n):
                if X[i, j] < threshold:
                    gl += float(g[i])
                    hl += float(h[i])
                else:
                    gr += float(g[i])
                    hr += float(h[i])
            if hl < min_child_hessian or hr < min_child_hessian:
                continue
            gain = 0.5 * (leaf_score(gl, hl) + leaf_score(gr, hr) - leaf_score(g_total, h_total)) - gamma
            if gain <= 0.0:
                continue
            if best is None or gain > best[2]:
                best = (j, threshold, gain)
    return best


def brute_force_tree(X, g, h, reg_lambda, gamma, min_child_hessian, max_depth):
    """Depth-first growth that calls ``brute_force_best_split`` on each
    node's rows.

    Returns {slot: ("split", feature, threshold) or ("leaf", weight)} over
    the reachable slots, children of slot i at 2i+1 and 2i+2. A node at
    max_depth, without a positive-gain split, or whose split would leave a
    child empty is a leaf of weight -G/(H + reg_lambda).
    """
    X = np.asarray(X, dtype=np.float64)
    nodes = {}

    def grow(slot, rows, depth):
        split = None
        if depth < max_depth:
            split = brute_force_best_split(X[rows], [g[i] for i in rows], [h[i] for i in rows],
                                           reg_lambda, gamma, min_child_hessian)
        if split is not None:
            j, threshold, _ = split
            left = [i for i in rows if X[i, j] < threshold]
            right = [i for i in rows if not X[i, j] < threshold]
            if left and right:
                nodes[slot] = ("split", j, threshold)
                grow(2 * slot + 1, left, depth + 1)
                grow(2 * slot + 2, right, depth + 1)
                return
        g_sum = sum(float(g[i]) for i in rows)
        h_sum = sum(float(h[i]) for i in rows)
        nodes[slot] = ("leaf", -g_sum / (h_sum + reg_lambda))

    grow(0, list(range(X.shape[0])), 0)
    return nodes


def naive_bin_columns(X, max_bins=256):
    """``gbrt.bin_columns`` as it was before it went column by column: all
    columns transposed and sorted at once, then each column's values looked
    up in its edges. The edges follow ``np.sort``'s order of tied values, so
    an edge at zero may be -0.0."""
    columns = np.ascontiguousarray(X.T, dtype=np.float64)
    num_features, n = columns.shape
    ordered = np.sort(columns, axis=1)
    half = max_bins // 2
    # the inverted-CDF quantile i/B of n sorted values is the ceil(n*i/B)-th smallest
    quantiles = ordered[:, (n * np.arange(1, half) - 1) // half]
    edges = np.full((num_features, max_bins - 1), np.inf)
    bins = np.empty((num_features, n), dtype=np.uint8)
    for j, column in enumerate(ordered):
        cut = column[np.flatnonzero(column[1:] != column[:-1]) + 1]
        if cut.size >= max_bins:
            grid = column[0] + np.arange(1, half) / half * (column[-1] - column[0])
            cut = np.unique([quantiles[j], column[np.searchsorted(column, grid).clip(max=n - 1)]])
            cut = cut[cut > column[0]]
        edges[j, :cut.size] = cut
        bins[j] = np.searchsorted(cut, columns[j], side="right")
    # keep a padding column at least, so that every search has a candidate to reject
    return bins, edges[:, :max(1, np.isfinite(edges).sum(axis=1).max())]


def naive_class(delta, thresholds_mw):
    """Ramp class of one power change: one more than the number of class
    boundaries (-T_m, ..., -T_1, 0, T_1, ..., T_m) at or below it."""
    boundaries = [-t for t in thresholds_mw] + [0.0] + list(thresholds_mw)
    return 1 + sum(b <= delta for b in boundaries)


def naive_metrics(true, predicted, num_classes):
    """Accuracy and per-class precision/recall/F1 by direct counting."""
    true = list(int(v) for v in true)
    predicted = list(int(v) for v in predicted)
    n = len(true)
    accuracy = sum(t == p for t, p in zip(true, predicted)) / n
    per_class = {}
    for c in range(1, num_classes + 1):
        tp = sum(t == c and p == c for t, p in zip(true, predicted))
        fp = sum(t != c and p == c for t, p in zip(true, predicted))
        fn = sum(t == c and p != c for t, p in zip(true, predicted))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[c] = (precision, recall, f1)
    macro_f1 = sum(v[2] for v in per_class.values()) / num_classes
    return accuracy, per_class, macro_f1


def leaf_slot(feature, threshold, x):
    """Index into a tree's ``leaf`` row of the slot one row reaches.

    Slot i's children are 2i+1 (x[feature] < threshold) and 2i+2; a slot
    whose feature is -1 is a leaf, and its weight sits at its leftmost
    descendant on the leaf level.
    """
    n = len(feature)
    i = 0
    while i < n and feature[i] >= 0:
        i = 2 * i + 1 if x[feature[i]] < threshold[i] else 2 * i + 2
    while i < n:
        i = 2 * i + 1
    return i - n


def document_scores(doc, x):
    """Per-class raw scores of one row under a format-3 model document: the
    base score plus each tree's stored (already shrunken) leaf, added tree by
    tree in document order (round-major, class-minor)."""
    scores = [float(b) for b in doc["base_score"]]
    for t, (feature, threshold, leaf) in enumerate(zip(doc["feature"], doc["threshold"], doc["leaf"])):
        scores[t % len(scores)] += leaf[leaf_slot(feature, threshold, x)]
    return scores


def tree_leaf_weights(feature, leaf):
    """Weights of a tree's real leaves: the slots reached through splits
    that do not split themselves (layout padding is not counted)."""
    n = len(feature)
    weights = []
    stack = [0]
    while stack:
        i = stack.pop()
        if i < n and feature[i] >= 0:
            stack += [2 * i + 1, 2 * i + 2]
            continue
        while i < n:
            i = 2 * i + 1
        weights.append(leaf[i - n])
    return weights


def model_objective(doc, X, targets, params):
    """Eq.-style objective recomputed from a format-3 model document:
    cross-entropy of the accumulated scores plus, per tree, the leaf-count
    penalty and the L2 penalty on the stored (shrunken) leaf values, with
    ``params.gamma`` and ``params.reg_lambda``.

    Returns the trace over 0..n_rounds rounds.
    """
    X = np.asarray(X, dtype=np.float64)
    lam, gamma = params.reg_lambda, params.gamma
    num_classes = len(doc["base_score"])
    y = [int(t) - 1 for t in targets]

    scores = np.tile(np.asarray(doc["base_score"], dtype=np.float64), (X.shape[0], 1))
    trace = []
    penalty = 0.0
    trace.append(cross_entropy_loss(scores, y) + penalty)
    trees = list(zip(doc["feature"], doc["threshold"], doc["leaf"]))
    for start in range(0, len(trees), num_classes):
        for c, (feature, threshold, leaf) in enumerate(trees[start:start + num_classes]):
            for i, x in enumerate(X):
                scores[i, c] += leaf[leaf_slot(feature, threshold, x)]
            leaves = tree_leaf_weights(feature, leaf)
            penalty += gamma * len(leaves) + 0.5 * lam * sum(w * w for w in leaves)
        trace.append(cross_entropy_loss(scores, y) + penalty)
    return trace


def _argmax(values):
    """Index of the first largest value."""
    return max(range(len(values)), key=lambda i: (values[i], -i))


def naive_evaluation(csv_path, resolution_s, lag_count, thresholds_mw, models, anchors):
    """``(anchor timestamps, evaluation document)`` recomputed from the series
    file alone, for the horizons of ``models`` ({S: format-3 model document})
    scored on the rows of ``anchors`` ({S: (train timestamps, test timestamps)}).

    The file is read with ``csv``; a point starts a new segment unless it
    lies ``resolution_s`` after the one before it. Anchor t of horizon S
    needs t-(L-1) and t+S in its segment; its target is the class of
    w(t+S) - w(t) and its features are w(t-L+1), ..., w(t), each looked up
    by timestamp. GBRT predicts the argmax of ``document_scores`` (ties to
    the lower id), persistence the class of w(t) - w(t-S) where t-S is in
    the segment (other rows are not scored), and majority the modal train
    target (ties to the lower id). The first value maps each S to every
    anchor it found, in time order.
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    power = {int(row["timestamp"]): float(row["power_mw"]) for row in rows}
    segment, seg, last = {}, 0, None
    for t in sorted(power):
        if last is not None and t - last != resolution_s:
            seg += 1
        segment[t], last = seg, t

    def in_segment(t, steps):
        """Whether the point ``steps`` steps from t exists in t's segment."""
        u = t + steps * resolution_s
        return u in segment and segment[u] == segment[t]

    def ramp(t, back):
        return naive_class(power[t] - power[t - back * resolution_s], thresholds_mw)

    k = 2 * (len(thresholds_mw) + 1)
    found, scored = {}, {"gbrt": [], "persistence": [], "majority": []}
    for s, doc in models.items():
        found[s] = [t for t in sorted(power) if in_segment(t, -(lag_count - 1)) and in_segment(t, s)]
        train_ts, test_ts = anchors[s]
        target = {t: ramp(t + s * resolution_s, s) for t in found[s]}
        train_targets = [target[t] for t in train_ts]
        counts = [train_targets.count(c) for c in range(1, k + 1)]
        predicted = {
            "gbrt": [(target[t], 1 + _argmax(document_scores(
                doc, [power[t - i * resolution_s] for i in range(lag_count - 1, -1, -1)]))) for t in test_ts],
            "persistence": [(target[t], ramp(t, s)) for t in test_ts if in_segment(t, -s)],
            "majority": [(target[t], 1 + _argmax(counts)) for t in test_ts],
        }
        for name, pairs in predicted.items():
            true, pred = [a for a, _ in pairs], [b for _, b in pairs]
            accuracy, per_class, macro_f1 = naive_metrics(true, pred, k)
            scored[name].append(({
                "accuracy": accuracy, "overall_f1": macro_f1, "rare_f1": (per_class[1][2] + per_class[k][2]) / 2,
                "rare_classes": [1, k], "steps_ahead": s,
                "per_class": {str(c): dict(zip(("precision", "recall", "f1"), v)) for c, v in per_class.items()},
            }, sum(a == b for a, b in pairs), len(pairs)))
    models_doc = []
    for name, horizons in scored.items():
        per_horizon = [h for h, _, _ in horizons]
        models_doc.append({
            "model": name,
            **{f"mean_{key}": sum(h[key] for h in per_horizon) / len(per_horizon)
               for key in ("accuracy", "overall_f1", "rare_f1")},
            "pooled_accuracy": sum(c for _, c, _ in horizons) / sum(n for _, _, n in horizons),
            "per_horizon": per_horizon,
        })
    return found, {"models": models_doc}
