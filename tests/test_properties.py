"""Property tests: labeling, series round trip, the series' two parsers,
split and fold proportions, tree growth and the stacked-tree walker against
per-node and per-row oracles, and the predict command on fuzzed model
documents.

Every test runs with ``derandomize=True``, so each run draws the same
examples and tier-1 stays deterministic.
"""

import contextlib
import csv
import io
import json
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windramp import (DataError, HyperParams, ThresholdSet, WindPowerSeries, load_series, stratified_split, train,
                      write_series)
from windramp import gbrt, series
from windramp.cli import main
from windramp.evaluation import stratified_folds
from windramp.gbrt import bin_columns, deserialize_model, serialize_model, softmax
from windramp.labeling import assign_classes
from windramp.series import LoadReport

from .conftest import grown_tree, make_dataset, quadrant_dataset, window_rows
from .oracles import brute_force_tree, document_scores, naive_bin_columns, naive_class

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
    assert vector.tolist() == [naive_class(d, thresholds.thresholds_mw) for d in deltas]
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
    wps = WindPowerSeries(timestamps=np.array(timestamps, dtype=np.int64), powers=np.array(powers),
                          resolution_s=resolution, rated_capacity_mw=capacity)
    assert wps.segment_bounds == tuple(bounds)
    return wps


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


# cells and lines one parser may read otherwise than the other; {t} is the row's timestamp
_TIMESTAMP_CELLS = ["+{t}", "0{t}", " {t} ", "{t}.0", "{t}e0", "1e3", "{iso}", "9223372036854775808",
                    "-9223372036854775809", "\u0663\u0660\u0660", "1_0", "nan", "", "{t}\x00"]
_POWER_CELLS = ["1_0", "nan", "1e400", ".5", "0x1p3", '"1.5"', " 2.5 ", "", "-0.0", "25", "1e-5", "\u0661", "inf",
                "\xa01", '1"5']
_LINES = ["", " ", "\t", "{row}{d}9", "{first}", "{row}\x00", '"{row}"', "\ufeff{row}"]
_ENDS = ["\n", "\r", "", "\r\r\n"]


@st.composite
def series_files(draw):
    """A series file's bytes and its load_series keywords: rows as
    write_series writes them, maybe with an extra column, then up to four
    edits of a cell, a line or a line end, and maybe a byte-order mark
    or a byte that is not UTF-8."""
    delimiter = draw(st.sampled_from([",", ";", ".", "e", "|", "\t"]))
    names = draw(st.sampled_from([("timestamp", "power_mw"), ("t", "mw")]))
    header = draw(st.permutations([*names, *draw(st.sampled_from([[], ["x"]]))]))
    n = draw(st.integers(0, 5))
    powers = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    # a quoted cell that holds delimiters, where csv and a plain split see other columns
    x = draw(st.sampled_from(["x", '"{d}{t}{d}2.5{d}"']))
    cells = [dict(zip(names, (str(600 * (i + 1)), repr(p))), x=x.format(d=delimiter, t=600 * (i + 1)))
             for i, p in enumerate(powers)]
    lines = [delimiter.join(header)] + [delimiter.join(row[name] for name in header) for row in cells]
    ends = ["\r\n"] * len(lines)
    for kind, at, choice in draw(st.lists(st.tuples(st.sampled_from(["timestamp", "power", "line", "end"]),
                                                    st.integers(0, 5), st.integers(0, 15)), max_size=4)):
        i = at % len(lines)
        if kind == "end":
            ends[i] = _ENDS[choice % len(_ENDS)]
        elif kind == "line":
            row = lines[i]
            lines[i] = _LINES[choice % len(_LINES)].format(row=row, d=delimiter, first=row.split(delimiter)[0])
        elif i > 0:
            row = cells[i - 1]
            t = 600 * i
            if kind == "timestamp":
                row[names[0]] = _TIMESTAMP_CELLS[choice % len(_TIMESTAMP_CELLS)].format(
                    t=t, iso=datetime.fromtimestamp(t, timezone.utc).isoformat())
            else:
                row[names[1]] = _POWER_CELLS[choice % len(_POWER_CELLS)]
            lines[i] = delimiter.join(row[name] for name in header)
    data = b"".join((line + end).encode("utf-8") for line, end in zip(lines, ends))
    prefix, suffix = draw(st.sampled_from([(b"", b""), (b"\xef\xbb\xbf", b""), (b"", b"\xff\n")]))
    columns = {"timestamp_column": names[0], "power_column": names[1], "delimiter": delimiter}
    return prefix + data + suffix, columns


def _row_parser_load(path, *, resolution_s, rated_capacity_mw, timestamp_column, power_column, delimiter):
    """load_series as it read every file before it had a loadtxt path: the
    file streamed through the row parser."""
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            ts, pw, dropped = series._read_columns(csv.reader(fh, delimiter=delimiter), timestamp_column,
                                                   power_column)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read series file {path}: {exc}") from exc
    order = np.argsort(ts, kind="stable")
    wps = WindPowerSeries(timestamps=ts[order], powers=pw[order], resolution_s=resolution_s,
                          rated_capacity_mw=rated_capacity_mw)
    return wps, LoadReport(rows_read=ts.size, rows_dropped=dropped, segments=len(wps.segment_bounds))


def _outcome(load, path, columns):
    """The arrays' bytes and the report, or the DataError's message."""
    try:
        wps, report = load(path, resolution_s=600, rated_capacity_mw=20.0, **columns)
    except DataError as exc:
        return str(exc)
    return wps.timestamps.tobytes(), wps.powers.tobytes(), report


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=series_files())
def test_load_series_agrees_with_the_row_parser(tmp_path_factory, case):
    """Whichever path load_series takes, it gives the row parser's arrays
    bit for bit and its report, or its DataError message."""
    data, columns = case
    path = tmp_path_factory.mktemp("series") / "series.csv"
    path.write_bytes(data)
    assert _outcome(load_series, path, columns) == _outcome(_row_parser_load, path, columns)


@pytest.mark.parametrize("column, cell", [("timestamp", c) for c in _TIMESTAMP_CELLS]
                         + [("power", c) for c in _POWER_CELLS])
def test_load_series_agrees_with_the_row_parser_on_each_cell(tmp_path, column, cell):
    """Each cell of the lists alone, in one row of a clean write_series
    file: whichever path load_series takes, it gives the row parser's
    arrays bit for bit and its report, or its DataError message."""
    path = tmp_path / "series.csv"
    write_series(WindPowerSeries(timestamps=600 * np.arange(1, 5), powers=[1.0, 2.5, 0.0, 20.0], resolution_s=600,
                                 rated_capacity_mw=20.0), path)
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    cells = lines[2].split(",")
    cells[column == "power"] = cell.format(t=1200, iso=datetime.fromtimestamp(1200, timezone.utc).isoformat())
    lines[2] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    columns = {"timestamp_column": "timestamp", "power_column": "power_mw", "delimiter": ","}
    assert _outcome(load_series, path, columns) == _outcome(_row_parser_load, path, columns)


@PROPERTY
@given(
    counts=st.lists(st.integers(0, 80), min_size=2, max_size=6).filter(lambda c: sum(c) >= 2),
    test_fraction=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 5),
)
def test_stratified_split_share_within_one_row(counts, test_fraction, seed, k):
    """The test part holds each class's share to within one row, and k folds
    share each class's rows to within one row, larger shares first."""
    targets = np.repeat(np.arange(1, len(counts) + 1), counts)
    ds = make_dataset(np.zeros((targets.size, 1)), targets, ThresholdSet((1.0, 2.0)))
    train_ds, test_ds = stratified_split(ds, test_fraction, seed)
    assert len(train_ds) + len(test_ds) == targets.size
    for c, n_c in enumerate(counts, start=1):
        in_test = int(np.sum(test_ds.targets == c))
        assert abs(in_test - test_fraction * n_c) <= 1.0, (c, n_c, in_test)

    # a class of at least k rows puts one in every fold; with none, the last fold is empty
    if max(counts) < k:
        with pytest.raises(DataError):
            stratified_folds(targets, k, seed)
        return
    folds = stratified_folds(targets, k, seed)
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(targets.size))
    for c in range(1, len(counts) + 1):
        per_fold = [int(np.sum(targets[rows] == c)) for rows in folds]
        assert max(per_fold) - min(per_fold) <= 1, (c, per_fold)
        assert per_fold == sorted(per_fold, reverse=True), (c, per_fold)


@st.composite
def model_documents(draw):
    """A valid format-3 document: trees of mixed depths up to D, thresholds
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
    doc = {
        "version": 3, "n_features": n_features,
        "base_score": draw(st.lists(weights, min_size=num_classes, max_size=num_classes)),
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
        st.lists(st.sampled_from([0.0, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 2.0, 3.0]),
                 min_size=f, max_size=f),
        st.sampled_from([-1.0, 0.5, 2.0]),
        st.sampled_from([0.5, 1.0]),
    ), min_size=10, max_size=60)),
    max_depth=st.integers(1, 5),
    min_child_hessian=st.sampled_from([0.0, 1.0]),
    gamma=st.sampled_from([0.0, 0.25]),
    nodes_per_block=st.sampled_from([None, 1, 3]),
)
def test_grow_tree_matches_brute_force_tree(rows, max_depth, min_child_hessian, gamma, nodes_per_block):
    """Split for split, the histogram grower builds the tree that
    depth-first growth over the brute-force split builds: with at most 256
    distinct values a column's bins are its values, so the search is exact.
    Gradients and hessians are small multiples of 0.5, so every sum is exact
    in any order and gains, thresholds and leaf weights must match bit for
    bit. Two of the values are adjacent representable numbers. A histogram
    budget of a few nodes makes wider levels go a block at a time, straight
    from their rows, in place of sibling subtraction."""
    X = np.array([x for x, _, _ in rows])
    g = np.array([gi for _, gi, _ in rows])
    h = np.array([hi for _, _, hi in rows])
    params = HyperParams(n_estimators=1, max_depth=max_depth, gamma=gamma, min_child_hessian=min_child_hessian)
    bins, edges, counts = bin_columns(*window_rows(X))
    cells = nodes_per_block * bins.shape[0] * (edges.shape[1] + 1) if nodes_per_block else gbrt._HIST_CELLS
    with mock.patch.object(gbrt, "_HIST_CELLS", cells):
        tree, values = grown_tree(bins, edges, counts, g, h, params)
    nodes = _grown_nodes(tree)
    assert nodes == brute_force_tree(X, g, h, 1.0, gamma, min_child_hessian, max_depth)
    for x, value in zip(X, values):
        slot = 0
        while nodes[slot][0] == "split":
            _, j, threshold = nodes[slot]
            slot = 2 * slot + 1 if x[j] < threshold else 2 * slot + 2
        assert value == nodes[slot][1]


# ties at zero of both signs, negative values, and magnitudes near 1e+-300
_BIN_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324]


@st.composite
def binning_matrices(draw):
    """An n x F matrix, n = 1 up to past 2 x 256, whose columns are each
    constant, a few tied values from a pool, or (from n = 256 on) more than
    256 distinct values at a drawn scale, some rounded into ties and some
    replaced by +-0.0."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(256, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["constant", "pool", "many", "many"]), min_size=1, max_size=4)):
        pool = draw(st.lists(st.sampled_from(_BIN_POOL), min_size=1, max_size=1 if kind == "constant" else 8))
        column = rng.choice(np.array(pool), n)
        if kind == "many":
            column = rng.standard_normal(n) * 10.0 ** draw(st.integers(-300, 300))
            if draw(st.booleans()):
                column = np.round(column / np.abs(column).max() * 300) * np.abs(column).max()
            zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
            column[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, 0.0, -0.0)
        columns.append(column)
    return np.stack(columns, axis=1)


@PROPERTY
@given(X=binning_matrices())
def test_bin_columns_matches_naive_binning(X):
    """Binning each column from its own sort order gives the bins of
    sorting every column at once, bit for bit, and the same edges as
    values. Only an edge's zero sign may differ: it is always +0.0. The
    counts are each column's bin counts."""
    bins, edges, counts = bin_columns(*window_rows(X))
    naive_bins, naive_edges = naive_bin_columns(X)
    assert bins.dtype == np.uint8 and bins.tobytes() == naive_bins.tobytes() and bins.shape == naive_bins.shape
    assert edges.shape == naive_edges.shape and np.array_equal(edges, naive_edges)
    assert not np.any(np.signbit(edges[edges == 0]))
    assert np.array_equal(counts, [np.bincount(column, minlength=edges.shape[1] + 1) for column in bins])


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
