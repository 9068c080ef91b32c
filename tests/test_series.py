import csv
import hashlib
import io

import numpy as np
import pytest

from windramp import DataError, WindPowerSeries, generate_series, load_series, series, write_series


def load_text(tmp_path, text, **columns):
    """load_series on ``text`` written to a file, at 600 s and 20 MW."""
    path = tmp_path / "input.csv"
    path.write_text(text)
    return load_series(path, resolution_s=600, rated_capacity_mw=20.0, **columns)


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


@pytest.mark.parametrize("text, line", [
    ("timestamp,power_mw\n600,1_0\n1_200,3\n", 2),
    ("timestamp,power_mw\n600,1\n1200,٣\n", 3),
    ("timestamp,power_mw\n٦٠٠,1\n1200,3\n", 2),
    ('timestamp,power_mw\n600,"1_0"\n1200,3\n', 2),  # quoted: only the row parser reads the file
], ids=["underscore", "arabic_indic_power", "arabic_indic_timestamp", "quoted_underscore"])
def test_numbers_float_reads_but_no_export_writes_rejected(tmp_path, text, line):
    """float() and int() read 1_0 as 10 and other scripts' digits as
    digits; loadtxt refuses both, and so does the row parser."""
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"line {line}: '_' or a non-ASCII character"):
        load_series(path, resolution_s=600, rated_capacity_mw=20.0)


@pytest.mark.parametrize("text, row_parser_calls", [
    ("timestamp,power_mw\n\xa0600,1\n1200,3\u2003\n", 0),
    ('timestamp,power_mw\n"\xa0600",1\n1200,3\u2003\n', 1),
], ids=["loadtxt", "row_parser"])
def test_unicode_space_around_a_number_is_stripped(tmp_path, monkeypatch, text, row_parser_calls):
    """loadtxt strips any Unicode space around a number, as str.strip()
    does, so the row parser reads such a cell too: both give one result."""
    calls = _row_parser_spy(monkeypatch)
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    wps, _ = load_series(path, resolution_s=600, rated_capacity_mw=20.0)
    assert len(calls) == row_parser_calls
    assert wps.timestamps.tolist() == [600, 1200] and wps.powers.tolist() == [1.0, 3.0]


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
    columns = {"timestamp_column": "t", "power_column": "mw", "delimiter": ";"}
    wps, _ = load_text(tmp_path, text, **columns)
    assert np.array_equal(wps.powers, [1.5, 2.5])
    # write_series takes the same keywords and writes the same text back
    write_series(wps, tmp_path / "back.csv", **columns)
    assert (tmp_path / "back.csv").read_text() == text


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


def _row_parser_spy(monkeypatch):
    """Count the calls of the row parser, which still parses."""
    calls = []
    read = series._read_columns
    monkeypatch.setattr(series, "_read_columns", lambda *args: calls.append(args) or read(*args))
    return calls


@pytest.mark.parametrize("delimiter", [",", ";", "|"])
def test_written_files_take_the_loadtxt_path(tmp_path, monkeypatch, delimiter):
    """A guard too strict for write_series' own files would lose the
    loadtxt path's speed without failing any other test."""
    wps = generate_series(500, seed=3)
    path = tmp_path / "series.csv"
    write_series(wps, path, delimiter=delimiter)
    calls = _row_parser_spy(monkeypatch)
    back, report = load_series(path, resolution_s=600, rated_capacity_mw=20.0, delimiter=delimiter)
    assert calls == []
    assert back.timestamps.tobytes() == wps.timestamps.tobytes()
    assert back.powers.tobytes() == wps.powers.tobytes()
    assert (report.rows_read, report.rows_dropped) == (500, 0)


@pytest.mark.parametrize("text, rows_read, rows_dropped", [
    ("timestamp,power_mw\n600,1.0\n\n1200,2.0\n", 2, 1),  # loadtxt skips a blank line without counting it
    ("timestamp,power_mw\r\n600,1.0\r\n \t\r\n1200,2.0", 2, 1),
    ('timestamp,power_mw\n600,"1.0"\n1200,2.0\n', 2, 0),
    ('x,timestamp,power_mw\n",600,2.5,",600,1.0\nx,1200,2.0\n', 2, 0),  # split on commas, 2.5 is the power
    ("timestamp,power_mw\r600,1.0\r1200,2.0\r", 2, 0),  # bare \r ends a row only for csv
    ("timestamp,power_mw\n600,1.0\r1200,2.0\n\n", 2, 1),  # as many lines as rows loadtxt reads
    ("timestamp,power_mw\n1970-01-01T00:10:00,1.0\n1200,2.0\n", 2, 0),
    ("timestamp,power_mw\n600.0,1.0\n1200,2.0\n", 2, 0),
], ids=["blank_line", "whitespace_line", "quoted_power", "quoted_delimiters", "bare_cr", "bare_cr_and_blank_line",
        "iso_timestamp", "float_timestamp"])
def test_files_loadtxt_would_misread_take_the_row_parser(tmp_path, monkeypatch, text, rows_read, rows_dropped):
    calls = _row_parser_spy(monkeypatch)
    wps, report = load_text(tmp_path, text)
    assert len(calls) == 1
    assert wps.timestamps.tolist() == [600, 1200] and wps.powers.tolist() == [1.0, 2.0]
    assert (report.rows_read, report.rows_dropped) == (rows_read, rows_dropped)


@pytest.mark.parametrize("data, message", [
    (b"note,timestamp,power_mw\n\xff,600,1.0\n", "cannot read series file"),
    # the file is decoded as a stream, in chunks of 8 KiB: a faulty row in an earlier chunk is reported first
    (b"timestamp,power_mw\n600,oops\n" + b"".join(b"%d,1.0\n" % (600 * i) for i in range(2, 2000)) + b"\xff\n",
     "line 2: unparseable power"),
], ids=["in_an_unread_column", "after_a_faulty_row"])
def test_bytes_not_utf8(tmp_path, data, message):
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match=message):
        load_series(path, resolution_s=600, rated_capacity_mw=20.0)


@pytest.mark.parametrize("delimiter", [",", ";", ".", "e", "|", "\t", "-", '"', " "])
@pytest.mark.parametrize("names", [("timestamp", "power_mw"), ("t;1", 'mw "x" e.-')], ids=["default", "custom"])
def test_write_series_writes_csv_writers_bytes(tmp_path, delimiter, names):
    """Over more than one 4,096-row block, with powers that print with a
    sign, an exponent or a decimal point."""
    powers = generate_series(5000, seed=4).powers.copy()
    powers[[0, 1, 2, 4095, 4096, 4999]] = [-0.0, 1e-05, 5e-324, 19.999999999999996, 0.0, 20.0]
    wps = WindPowerSeries(timestamps=600 * np.arange(1, 5001), powers=powers, resolution_s=600, rated_capacity_mw=20.0)
    columns = {"timestamp_column": names[0], "power_column": names[1], "delimiter": delimiter}
    path = tmp_path / "series.csv"
    write_series(wps, path, **columns)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, delimiter=delimiter)
    writer.writerow(names)
    for t, p in zip(wps.timestamps, wps.powers):
        writer.writerow([int(t), repr(float(p))])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    back, _ = load_series(path, resolution_s=600, rated_capacity_mw=20.0, **columns)
    assert back.timestamps.tobytes() == wps.timestamps.tobytes()
    assert back.powers.tobytes() == wps.powers.tobytes()


def test_full_scale_fixture_count(tmp_path):
    # same number of time points as the reference site extracts
    wps = generate_series(157_969, seed=11)
    path = tmp_path / "site.csv"
    write_series(wps, path)
    back, report = load_series(path, resolution_s=600, rated_capacity_mw=20.0)
    assert report.rows_read == 157_969
    assert len(back) == 157_969


@pytest.mark.parametrize("n_points, seed, powers_sha256, timestamps_sha256", [
    (52560, 1, "acc8a614719cc03ea906f78ee8a66687c1e3e7a34c4e7073b693cd28c2c6800a",
     "b6267525a6d222e6416e62dec3d516c887cf7a9bad9914a971231b58b68f255b"),
    (4320, 1, "81698ec8c65aae1734438c7b7ff8c0c03c827b92889f5f1ae5c6c6542b271fe0",
     "674f4ca5abbdd4a9b16b68d52cd9f35624183270142e0f2491b58e6380a33dfd"),
    (52560, 7920, "547a81362ae4ae001e6adb6e968905be34a347a311b08941a5bdb192dfec50c3",
     "b6267525a6d222e6416e62dec3d516c887cf7a9bad9914a971231b58b68f255b"),
    (4320, 0, "5e43a3d0529ab74ee464e6020c72eece816e327941153630e24c5812dfda7a35",
     "674f4ca5abbdd4a9b16b68d52cd9f35624183270142e0f2491b58e6380a33dfd"),
    (2000, 3, "1986b0e016ec029d21abbeab26c8a430da64dc2a2f3a809542c538b3af706505",
     "923341dc377e3482e0b9ab08a309241fc2bcd6712b6ea18c9a298183423cf9f0"),
    (2, 0, "e1fe6e32681e5e1dbe7b40b6f1dd4abe4f1d1dabe0709088b617edcf9fb6b7cb",
     "db00a3050713e75d13158c5d0ab94c0535e88d76aaa89d2fab17eb9d00b2038d"),
    (5, 1, "d22bf83469ce555b6170755e2d9a7a0d393796e5c32961f1fceef030333ac65b",
     "7b7f734a0661d18d00ce444cbb1b30f7ab58900fa7b67efd2d29a56c9b682618"),
    # ends on the first high plateau of seed 0's first storm
    (430, 0, "61713010dbff1a484cb32ceeded2ef6a1c79481ec2ac95fde89c55ff4deafc72",
     "bdbfbbac16e16456266256c7c48f6a321ff052cdf4b13986fda060b7fb6e56db"),
])
def test_generate_series_pinned(n_points, seed, powers_sha256, timestamps_sha256):
    """generate_series yields these exact arrays: the benchmark's series
    (a year and 30 days at seed 1, the request rows at seed 1 + 7919, the
    served model's at seed 0), the CLI tests' series, short ones and one cut
    mid-storm. The digests were recorded before the generator was rewritten
    as one stream of steps."""
    wps = generate_series(n_points, seed=seed)
    assert hashlib.sha256(wps.powers.tobytes()).hexdigest() == powers_sha256
    assert hashlib.sha256(wps.timestamps.tobytes()).hexdigest() == timestamps_sha256
