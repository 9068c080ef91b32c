"""``evaluation.json`` against an oracle that reads nothing but the series
file, the model files and the dealt anchors."""

import json

import numpy as np
import pytest

from windramp import (HorizonSpec, ThresholdSet, WindPowerSeries, build_dataset, generate_series, load_series,
                      stratified_split, write_series)
from windramp.cli import main

from .oracles import naive_evaluation

LAGS, HORIZONS, SEED, RESOLUTION_S = 4, (2, 6), 3, 600  # L-1 >= S at S=2, L-1 < S at S=6


def assert_close(actual, expected, path="doc"):
    """Same keys, list lengths and strings; every number within 1e-12."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), path
        for key in expected:
            assert_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{path}[{i}]")
    elif isinstance(expected, str):
        assert actual == expected, path
    else:
        assert abs(actual - expected) <= 1e-12, f"{path}: {actual} != {expected}"


@pytest.mark.parametrize("thresholds", [(3.0,), (2.0, 6.0)], ids=["4_classes", "6_classes"])
def test_evaluation_matches_oracle(tmp_path, thresholds):
    """prepare, train and evaluate on a series with three gaps, one of
    which leaves a segment too short for any anchor: every number of
    ``evaluation.json`` is the oracle's, and the dataset's anchors are the
    ones the oracle finds."""
    full = generate_series(700, seed=5)
    keep = np.ones(700, dtype=bool)
    keep[[200, 201, 202, 300, 301, 306, 307]] = False
    wps = WindPowerSeries(full.timestamps[keep], full.powers[keep], RESOLUTION_S, 20.0)
    assert [stop - start for start, stop in wps.segment_bounds] == [200, 97, 4, 392]
    csv_path, config = tmp_path / "series.csv", tmp_path / "config.json"
    write_series(wps, csv_path)
    config.write_text(json.dumps({"version": 1, "hyperparams": {"n_estimators": 4, "max_depth": 3}}))
    out = tmp_path / "out"
    for stage in ("prepare", "train", "evaluate"):
        assert main([stage, "--config", str(config), "--data", str(csv_path), "--capacity-mw", "20",
                     "--threshold-mw", ",".join(map(str, thresholds)), "--lags", str(LAGS),
                     "--horizons", ",".join(map(str, HORIZONS)), "--seed", str(SEED), "--out", str(out)]) == 0

    loaded, _ = load_series(csv_path, resolution_s=RESOLUTION_S, rated_capacity_mw=20.0)
    anchors, models = {}, {}
    for s in HORIZONS:
        ds = build_dataset(loaded, HorizonSpec(s, LAGS), ThresholdSet(thresholds))
        anchors[s] = tuple(part.anchor_ts.tolist() for part in stratified_split(ds, 0.2, SEED))
        models[s] = json.loads((out / "models" / f"horizon_{s}.model.json").read_text())
    found, expected = naive_evaluation(csv_path, RESOLUTION_S, LAGS, thresholds, models, anchors)
    for s in HORIZONS:
        assert sorted(anchors[s][0] + anchors[s][1]) == found[s]
    assert_close(json.loads((out / "reports" / "evaluation.json").read_text()), expected)
