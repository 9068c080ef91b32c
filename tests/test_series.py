import numpy as np
import pytest

from windramp import ColumnSchema, DataError, WindPowerSeries, generate_series, load_series, write_series


def load_text(tmp_path, text, schema=None):
    """load_series on ``text`` written to a file, at 600 s and 20 MW."""
    path = tmp_path / "input.csv"
    path.write_text(text)
    return load_series(path, schema, resolution_s=600, rated_capacity_mw=20.0)


def test_load_well_formed(tmp_path):
    path = tmp_path / "wind.csv"
    path.write_text("timestamp,power_mw\n600,1.0\n1200,2.0\n1800,3.0\n")
    wps, report = load_series(path, resolution_s=600, rated_capacity_mw=20.0)
    assert len(wps) == 3
    assert np.array_equal(wps.timestamps, [600, 1200, 1800])
    assert np.array_equal(wps.powers, [1.0, 2.0, 3.0])
    assert wps.segment_bounds == ((0, 3),)
    assert report.rows_read == 3
    assert report.gaps == 0
    # a UTF-8 byte-order mark, as spreadsheet CSV exports write it, is not part of the header
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    bom, _ = load_series(path, resolution_s=600, rated_capacity_mw=20.0)
    assert np.array_equal(bom.timestamps, wps.timestamps) and np.array_equal(bom.powers, wps.powers)


def test_gap_policy_split_makes_two_segments(tmp_path):
    text = "timestamp,power_mw\n600,1.0\n1200,2.0\n2400,3.0\n"
    wps, report = load_text(tmp_path, text)
    assert wps.segment_bounds == ((0, 2), (2, 3))
    assert report.gaps == 1
    assert report.segments == 2
    segments = list(wps.segments())
    assert [len(p) for _, p in segments] == [2, 1]
    # no values fabricated: segment lengths sum to the valid input rows
    assert sum(len(p) for _, p in segments) == report.rows_read


def test_negative_power_names_offender(tmp_path):
    text = "timestamp,power_mw\n600,1.0\n1200,-1.0\n"
    with pytest.raises(DataError, match="negative power.*1200"):
        load_text(tmp_path, text)


def test_power_above_capacity_is_hard_error(tmp_path):
    text = "timestamp,power_mw\n600,1.0\n1200,25.5\n"
    with pytest.raises(DataError, match="capacity"):
        load_text(tmp_path, text)


def test_duplicate_timestamps_listed(tmp_path):
    text = "timestamp,power_mw\n600,1.0\n600,2.0\n1200,3.0\n"
    with pytest.raises(DataError, match="duplicate timestamps.*600"):
        load_text(tmp_path, text)


def test_duplicates_reported_before_point_faults(tmp_path):
    # timestamps are checked while segmenting, each point once on construction
    text = "timestamp,power_mw\n600,1.0\n600,-2.0\n1200,3.0\n"
    with pytest.raises(DataError, match="duplicate timestamps.*600"):
        load_text(tmp_path, text)


def test_descending_timestamps_rejected():
    # negative strides are not gaps: the series refuses them
    with pytest.raises(DataError, match="strictly increasing"):
        WindPowerSeries(
            timestamps=np.array([1800, 1200, 600]),
            powers=np.array([1.0, 2.0, 3.0]),
            resolution_s=600,
            rated_capacity_mw=20.0,
        )


def test_segment_bounds_derived_from_the_strides():
    wps = WindPowerSeries(
        timestamps=np.array([600, 1200, 2400, 3000, 3600]),
        powers=np.ones(5),
        resolution_s=600,
        rated_capacity_mw=20.0,
    )
    assert wps.segment_bounds == ((0, 2), (2, 5))


def test_malformed_row_reports_line_number(tmp_path):
    text = "timestamp,power_mw\n600,1.0\n1200,oops\n"
    with pytest.raises(DataError, match="line 3"):
        load_text(tmp_path, text)


@pytest.mark.parametrize("timestamp", ["100000000000000000000", "1e20", "-1e20", "9223372036854775808"])
def test_timestamp_outside_int64_rejected(tmp_path, timestamp):
    text = f"timestamp,power_mw\n600,1.0\n{timestamp},5\n"
    with pytest.raises(DataError, match="line 3: .*int64"):
        load_text(tmp_path, text)


def test_integer_timestamps_read_exactly(tmp_path):
    # past 2**53 a float rounds: 2**53 + 1 would load as 2**53
    wps, _ = load_text(tmp_path, "timestamp,power_mw\n9007199254740993,1.0\n9007199254741593,2.0\n")
    assert wps.timestamps.tolist() == [2**53 + 1, 2**53 + 601]
    wps, _ = load_text(tmp_path, "timestamp,power_mw\n9223372036854775207,1.0\n9223372036854775807,2.0\n")
    assert wps.timestamps.tolist() == [2**63 - 601, 2**63 - 1]


def test_sub_resolution_stride_rejected(tmp_path):
    text = "timestamp,power_mw\n600,1.0\n900,2.0\n"
    with pytest.raises(DataError, match="less than the declared resolution"):
        load_text(tmp_path, text)


def test_rows_sorted_and_iso_timestamps_normalized(tmp_path):
    text = (
        "timestamp,power_mw\n"
        "1970-01-01T00:20:00+00:00,2.0\n"
        "1970-01-01T00:10:00Z,1.0\n"
        "1970-01-01T00:30:00,3.0\n"
    )
    wps, _ = load_text(tmp_path, text)
    assert np.array_equal(wps.timestamps, [600, 1200, 1800])
    assert np.array_equal(wps.powers, [1.0, 2.0, 3.0])


def test_custom_schema_and_delimiter(tmp_path):
    text = "t;mw\n600;1.5\n1200;2.5\n"
    schema = ColumnSchema(timestamp="t", power="mw", delimiter=";")
    wps, _ = load_text(tmp_path, text, schema)
    assert np.array_equal(wps.powers, [1.5, 2.5])


def test_missing_column_is_error(tmp_path):
    with pytest.raises(DataError, match="missing required columns"):
        load_text(tmp_path, "time,power\n600,1\n")


def test_round_trip_bitwise(tmp_path):
    wps = generate_series(500, seed=3)
    path = tmp_path / "roundtrip.csv"
    write_series(wps, path)
    back, _ = load_series(path, resolution_s=600, rated_capacity_mw=20.0)
    assert np.array_equal(back.timestamps, wps.timestamps)
    assert back.powers.tobytes() == wps.powers.tobytes()
    assert back.segment_bounds == wps.segment_bounds


def test_round_trip_preserves_gaps(tmp_path):
    text = "timestamp,power_mw\n600,0.125\n1200,7.3\n3000,19.999999999999\n3600,4.0\n"
    wps, _ = load_text(tmp_path, text)
    path = tmp_path / "gapped.csv"
    write_series(wps, path)
    back, _ = load_series(path, resolution_s=600, rated_capacity_mw=20.0)
    assert np.array_equal(back.timestamps, wps.timestamps)
    assert back.powers.tobytes() == wps.powers.tobytes()
    assert back.segment_bounds == wps.segment_bounds


def test_full_scale_fixture_count(tmp_path):
    # same number of time points as the reference site extracts
    wps = generate_series(157_969, seed=11)
    path = tmp_path / "site.csv"
    write_series(wps, path)
    back, report = load_series(path, resolution_s=600, rated_capacity_mw=20.0)
    assert report.rows_read == 157_969
    assert len(back) == 157_969
