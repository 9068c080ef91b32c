"""Property tests: labeling, series round trip, split proportions, and the
predict command on fuzzed model documents.

Every test runs with ``derandomize=True``, so each run draws the same
examples and tier-1 stays deterministic.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from windramp import HyperParams, ThresholdSet, WindPowerSeries, load_series, stratified_split, train, write_series
from windramp.cli import main
from windramp.gbrt import serialize_model
from windramp.labeling import assign_class, assign_classes

from .conftest import make_dataset, quadrant_dataset

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
