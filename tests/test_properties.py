"""Property tests: labeling, series round trip, split proportions, tree
growth and the stacked-tree walker against per-node and per-row oracles,
and the predict command on fuzzed model documents.

Every test runs with ``derandomize=True``, so each run draws the same
examples and tier-1 stays deterministic.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from windramp import HyperParams, ThresholdSet, WindPowerSeries, load_series, stratified_split, train, write_series
from windramp.cli import main
from windramp.gbrt import deserialize_model, grow_tree, presort, serialize_model, softmax
from windramp.labeling import assign_class, assign_classes

from .conftest import make_dataset, quadrant_dataset
from .oracles import brute_force_tree, document_scores

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def threshold_sets(draw):
    values = draw(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=4, unique=True))
    return ThresholdSet(tuple(sorted(values)))


@PROPERTY
@given(thresholds=threshold_sets(), data=st.data())
def test_assign_classes_matches_assign_class(thresholds, data):
    edges = thresholds.boundaries().tolist()
    near = st.sampled_from(edges).flatmap(
        lambda b: st.sampled_from([b, float(np.nextafter(b, -np.inf)), float(np.nextafter(b, np.inf))])
    )
    deltas = data.draw(st.lists(st.one_of(finite, near), min_size=1, max_size=40))
    vector = assign_classes(np.array(deltas), thresholds)
    assert vector.tolist() == [assign_class(d, thresholds) for d in deltas]
    assert all(1 <= c <= thresholds.num_classes for c in vector)


@st.composite
def gapped_series(draw):
    """A series of 1-4 segments separated by gaps longer than one step."""
    resolution = draw(st.sampled_from([60, 600, 3600]))
    capacity = draw(st.floats(min_value=0.5, max_value=5000.0))
    lengths = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    t = draw(st.integers(1, 10**9)) * resolution
    timestamps, bounds = [], []
    for length in lengths:
        bounds.append((len(timestamps), len(timestamps) + length))
        timestamps.extend(t + resolution * np.arange(length))
        t = timestamps[-1] + resolution * draw(st.integers(2, 50)) + draw(st.integers(0, resolution - 1))
    powers = draw(st.lists(st.floats(min_value=0.0, max_value=capacity), min_size=len(timestamps),
                           max_size=len(timestamps)))
    return WindPowerSeries(
        timestamps=np.array(timestamps, dtype=np.int64), powers=np.array(powers),
        resolution_s=resolution, rated_capacity_mw=capacity, segment_bounds=tuple(bounds),
    )


@PROPERTY
@given(wps=gapped_series())
def test_series_round_trip_bit_for_bit(tmp_path_factory, wps):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    write_series(wps, path)
    back, report = load_series(path, resolution_s=wps.resolution_s, rated_capacity_mw=wps.rated_capacity_mw)
    assert back.timestamps.tobytes() == wps.timestamps.tobytes()
    assert back.powers.tobytes() == wps.powers.tobytes()
    assert back.segment_bounds == wps.segment_bounds
    assert report.gaps == len(wps.segment_bounds) - 1


@PROPERTY
@given(
    counts=st.lists(st.integers(0, 80), min_size=2, max_size=6).filter(lambda c: sum(c) >= 2),
    test_fraction=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_stratified_split_share_within_one_row(counts, test_fraction, seed):
    targets = np.repeat(np.arange(1, len(counts) + 1), counts)
    ds = make_dataset(np.zeros((targets.size, 1)), targets, ThresholdSet((1.0, 2.0)))
    train_ds, test_ds = stratified_split(ds, test_fraction, seed)
    assert len(train_ds) + len(test_ds) == targets.size
    for c, n_c in enumerate(counts, start=1):
        in_test = int(np.sum(test_ds.targets == c))
        assert abs(in_test - test_fraction * n_c) <= 1.0, (c, n_c, in_test)


@st.composite
def model_documents(draw):
    """A valid format-2 document: trees of mixed depths up to D, thresholds
    from a small pool (so rows can hit them exactly), leaf weights copied
    down under every slot that does not split."""
    num_classes = draw(st.integers(2, 4))
    n_features = draw(st.integers(1, 4))
    depth = draw(st.integers(0, 4))
    n = 2**depth - 1
    pool = draw(st.lists(st.floats(-10, 10), min_size=1, max_size=4))
    weights = st.floats(-5, 5)
    features, thresholds, leaves = [], [], []
    for _ in range(num_classes * draw(st.integers(1, 3))):
        feature = []
        for i in range(n):
            parent_splits = i == 0 or feature[(i - 1) // 2] >= 0
            feature.append(draw(st.integers(-1, n_features - 1)) if parent_splits else -1)
        leaf = draw(st.lists(weights, min_size=n + 1, max_size=n + 1))
        for i, f in enumerate(feature):
            if f < 0:
                level = (i + 1).bit_length() - 1
                span = 2 ** (depth - level)
                first = (i + 1 - 2**level) * span
                leaf[first:first + span] = [leaf[first]] * span
        features.append(feature)
        thresholds.append([draw(st.sampled_from(pool)) if f >= 0 else 0.0 for f in feature])
        leaves.append(leaf)
    learning_rate = draw(st.floats(0.01, 1.0))
    hyperparams = HyperParams(n_estimators=len(features) // num_classes, max_depth=max(depth, 1),
                              learning_rate=learning_rate)
    doc = {
        "version": 2, "num_classes": num_classes, "learning_rate": learning_rate,
        "base_score": draw(st.lists(weights, min_size=num_classes, max_size=num_classes)),
        "hyperparams": dataclasses.asdict(hyperparams), "n_features": n_features,
        "feature": features, "threshold": thresholds, "leaf": leaves,
    }
    values = st.one_of(st.sampled_from(pool), st.floats(-20, 20))
    rows = draw(st.lists(st.lists(values, min_size=n_features, max_size=n_features), min_size=1, max_size=12))
    return doc, np.array(rows, dtype=np.float64)


def _check_walker(doc, X):
    model = deserialize_model(json.dumps(doc))
    oracle = np.array([document_scores(doc, x) for x in X])
    assert model.raw_scores(X).tobytes() == oracle.tobytes()
    proba = model.predict_proba(X)
    assert proba.tobytes() == softmax(oracle).tobytes()
    for i in range(X.shape[0]):
        assert model.predict_proba(X[i:i + 1]).tobytes() == proba[i:i + 1].tobytes()
    assert model.predict_proba(np.empty((0, model.n_features))).shape == (0, model.num_classes)


@PROPERTY
@given(case=model_documents())
def test_walker_matches_oracle(case):
    """Every tree is walked as the oracle walks it, one row at a time (a
    value equal to a threshold goes right); scores add up bit for bit, and
    single rows equal their batch rows."""
    _check_walker(*case)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    X=st.integers(1, 3).flatmap(lambda f: st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=f, max_size=f), min_size=6, max_size=30)),
    max_depth=st.integers(1, 4),
    n_estimators=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_trained_walker_matches_oracle(X, max_depth, n_estimators, seed):
    """The layout grow_tree writes, read back by the oracle, gives the
    scores predict computes, on the training rows themselves."""
    X = np.array(X)
    targets = np.random.default_rng(seed).integers(1, 5, size=X.shape[0])
    targets[:2] = [1, 2]
    model = train(make_dataset(X, targets, ThresholdSet((1.0,))),
                  HyperParams(n_estimators=n_estimators, max_depth=max_depth, min_child_hessian=0.0))
    _check_walker(json.loads(serialize_model(model)), X)


def _grown_nodes(tree):
    """A grown tree in the oracle's form: its reachable slots, each a split
    or a leaf with the weight of its leftmost leaf slot."""
    n = tree.feature.size
    nodes, stack = {}, [0]
    while stack:
        slot = stack.pop()
        if slot < n and tree.feature[slot] >= 0:
            nodes[slot] = ("split", int(tree.feature[slot]), float(tree.threshold[slot]))
            stack += [2 * slot + 1, 2 * slot + 2]
            continue
        i = slot
        while i < n:
            i = 2 * i + 1
        nodes[slot] = ("leaf", float(tree.leaf[i - n]))
    return nodes


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    rows=st.integers(1, 3).flatmap(lambda f: st.lists(st.tuples(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=f, max_size=f),
        st.sampled_from([-1.0, 0.5, 2.0]),
        st.sampled_from([0.5, 1.0]),
    ), min_size=10, max_size=60)),
    max_depth=st.integers(1, 5),
    min_child_hessian=st.sampled_from([0.0, 1.0]),
    gamma=st.sampled_from([0.0, 0.25]),
)
def test_grow_tree_matches_brute_force_tree(rows, max_depth, min_child_hessian, gamma):
    """Split for split, the level-wise grower builds the tree that
    depth-first growth over the brute-force split builds. Gradients and
    hessians are small multiples of 0.5, so every sum is exact in any order
    and gains, thresholds and leaf weights must match bit for bit."""
    X = np.array([x for x, _, _ in rows])
    g = np.array([gi for _, gi, _ in rows])
    h = np.array([hi for _, _, hi in rows])
    params = HyperParams(n_estimators=1, max_depth=max_depth, gamma=gamma, min_child_hessian=min_child_hessian)
    values = np.full(len(rows), np.nan)
    nodes = _grown_nodes(grow_tree(*presort(X), g, h, params, train_leaf_values=values))
    assert nodes == brute_force_tree(X, g, h, 1.0, gamma, min_child_hessian, max_depth)
    for x, value in zip(X, values):
        slot = 0
        while nodes[slot][0] == "split":
            _, j, threshold = nodes[slot]
            slot = 2 * slot + 1 if x[j] < threshold else 2 * slot + 2
        assert value == nodes[slot][1]


_MODEL = json.loads(serialize_model(train(quadrant_dataset(n=40), HyperParams(n_estimators=2, max_depth=2))))
_ROWS = "1.5,-2.0\n-3.0,0.5\n"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every path into a JSON document except ``n_features``: a different
    width is a valid model that rejects the rows with exit 3."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if key != "n_features":
            yield from _paths(child, prefix + (key,))


_PATHS = [p for p in _paths(_MODEL) if p]


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _replace(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@PROPERTY
@given(edits=st.lists(st.tuples(st.sampled_from(_PATHS), json_values), min_size=1, max_size=3))
def test_predict_on_fuzzed_model_exits_0_or_4(tmp_path_factory, edits):
    doc = _MODEL
    for path, value in edits:
        try:
            doc = _replace(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed this path
    work = tmp_path_factory.mktemp("fuzz")
    (work / "model.json").write_text(json.dumps(doc))
    (work / "rows.csv").write_text(_ROWS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["predict", str(work / "model.json"), str(work / "rows.csv")])
    assert code in (0, 4), err.getvalue()
    if code == 0:
        for line in out.getvalue().splitlines():
            row = json.loads(line, parse_constant=_reject_constant)
            assert 1 <= row["class"] <= len(row["proba"])


def test_predict_after_any_single_edit_exits_0_or_4(tmp_path):
    """Every path of the document, replaced by each of a few bad values."""
    (tmp_path / "rows.csv").write_text(_ROWS)
    for path in _PATHS:
        for value in (None, -1, 2.5, 1e308, "x"):
            (tmp_path / "model.json").write_text(json.dumps(_replace(_MODEL, path, value)))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["predict", str(tmp_path / "model.json"), str(tmp_path / "rows.csv")])
            assert code in (0, 4), (path, value, err.getvalue())
            for line in out.getvalue().splitlines():
                json.loads(line, parse_constant=_reject_constant)
