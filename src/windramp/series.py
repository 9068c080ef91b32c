"""Wind-power time series ingestion.

Reads delimited text exports (one record per line, a timestamp column and a
power column) into an immutable, uniformly sampled series: by ``np.loadtxt``
where it reads the file as ``csv`` would, else by a row parser over ``csv``
(see ``load_series``). Missing steps never get interpolated: the series is
split into contiguous segments at any gap, and downstream
differencing/windowing never crosses a segment boundary.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, DataError

@dataclass(frozen=True)
class LoadReport:
    """Bookkeeping from one load: raw rows seen, rows skipped, gaps split."""

    rows_read: int
    rows_dropped: int
    segments: int

    @property
    def gaps(self) -> int:
        return self.segments - 1


@dataclass(frozen=True)
class WindPowerSeries:
    """Uniformly sampled wind-power series, possibly in several segments.

    Timestamps increase strictly, by ``resolution_s`` seconds within a
    segment; a longer stride starts the next segment. ``segment_bounds``
    ([start, stop) of each segment) is derived from the timestamps. Arrays
    are read-only; a constructed series is safe to share across threads.
    """

    timestamps: np.ndarray
    powers: np.ndarray
    resolution_s: int
    rated_capacity_mw: float
    segment_bounds: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        ts = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        pw = np.ascontiguousarray(self.powers, dtype=np.float64)
        if ts.ndim != 1 or pw.ndim != 1 or ts.shape != pw.shape:
            raise DataError("timestamps and powers must be 1-d arrays of equal length")
        if ts.size == 0:
            raise DataError("empty series")
        if self.resolution_s < 1:
            raise DataError(f"resolution_s must be >= 1, got {self.resolution_s}")
        if not (self.rated_capacity_mw > 0 and math.isfinite(self.rated_capacity_mw)):
            raise DataError(f"rated_capacity_mw must be finite and > 0, got {self.rated_capacity_mw}")
        bounds = _split_segments(ts, self.resolution_s)
        _validate_points(ts, pw, self.rated_capacity_mw)
        ts.setflags(write=False)
        pw.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "powers", pw)
        object.__setattr__(self, "segment_bounds", bounds)

    def __len__(self) -> int:
        return int(self.timestamps.size)


def _validate_points(ts: np.ndarray, pw: np.ndarray, capacity: float) -> None:
    if not np.all(np.isfinite(pw)):
        i = int(np.flatnonzero(~np.isfinite(pw))[0])
        raise DataError(f"non-finite power at timestamp {int(ts[i])}")
    if np.any(pw < 0):
        rows = [(int(t), float(p)) for t, p in zip(ts[pw < 0][:5], pw[pw < 0][:5])]
        raise DataError(f"negative power values (timestamp, power): {rows}")
    if np.any(pw > capacity):
        over = pw > capacity
        rows = [(int(t), float(p)) for t, p in zip(ts[over][:5], pw[over][:5])]
        raise DataError(
            f"power above rated capacity {capacity} MW (unit mismatch?) "
            f"(timestamp, power): {rows}"
        )


def _parse_timestamp(text: str, line_no: int) -> int:
    """Epoch seconds or ISO-8601 -> epoch seconds (naive times read as UTC)."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number: try ISO-8601, as for nan and inf
    if math.isfinite(value):
        if not value.is_integer():
            raise DataError(f"line {line_no}: fractional-second timestamp {text!r}")
        # digits are read exactly: a float holds every integer only up to 2**53
        seconds = int(text) if text.lstrip("+-").isdigit() else int(value)
        if not -2**63 <= seconds < 2**63:
            raise DataError(f"line {line_no}: timestamp {text!r} outside the int64 range")
        return seconds
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise DataError(f"line {line_no}: unparseable timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    epoch = dt.timestamp()
    if epoch != int(epoch):
        raise DataError(f"line {line_no}: sub-second timestamp {text!r}")
    return int(epoch)


def _split_segments(ts: np.ndarray, resolution_s: int) -> tuple[tuple[int, int], ...]:
    """[start, stop) of each run of timestamps ``resolution_s`` apart."""
    # all positive, so no stride wraps around int64
    if np.any(ts <= 0):
        raise DataError(f"timestamps must be strictly positive, got {int(ts[ts <= 0][0])}")
    deltas = np.diff(ts)
    if np.any(deltas == 0):
        dups = np.unique(ts[1:][deltas == 0])[:10].tolist()
        raise DataError(f"duplicate timestamps: {dups}")
    if np.any(deltas < 0):
        raise DataError("timestamps must be strictly increasing")
    short = deltas < resolution_s
    if np.any(short):
        i = int(np.flatnonzero(short)[0])
        raise DataError(
            f"timestamps {int(ts[i])} and {int(ts[i + 1])} are {int(deltas[i])}s apart, "
            f"less than the declared resolution of {resolution_s}s"
        )
    gap_at = np.flatnonzero(deltas > resolution_s)
    edges = [0] + [int(i) + 1 for i in gap_at] + [int(ts.size)]
    return tuple((edges[i], edges[i + 1]) for i in range(len(edges) - 1))


def load_series(
    path,
    *,
    resolution_s: int,
    rated_capacity_mw: float,
    timestamp_column: str = "timestamp",
    power_column: str = "power_mw",
    delimiter: str = ",",
) -> tuple[WindPowerSeries, LoadReport]:
    """Read a delimited text file into a validated WindPowerSeries.

    The header row names the columns: ``timestamp_column`` holds epoch seconds
    or ISO-8601 times and ``power_column`` megawatts, with fields separated by
    ``delimiter``, one character other than a line break (else a ConfigError).
    Rows are sorted by timestamp; exact duplicates, sub-resolution strides, and
    powers outside [0, rated_capacity_mw] are hard errors. Any missing step
    starts a new segment; no power value is ever fabricated.

    The file is read once. Integer timestamps and plain numbers, as
    ``write_series`` writes them, are parsed by ``np.loadtxt``; the row
    parser reads any other file (quotes, blank rows, ISO-8601, a fault) and
    alone names a faulty line. Both give the same result for every file.

    Returns the series together with a LoadReport (rows read / dropped blank
    rows / gaps split / segment count).
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in "\r\n":
        raise ConfigError(f"delimiter must be one character other than a line break, got {delimiter!r}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        columns = _loadtxt_columns(raw, timestamp_column, power_column, delimiter)
        if columns is None:  # a stream, as from the file: a fault in an earlier row comes before undecodable bytes
            with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as fh:  # -sig: skips a BOM
                columns = _read_columns(csv.reader(fh, delimiter=delimiter), timestamp_column, power_column)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read series file {path}: {exc}") from exc
    ts, pw, rows_dropped = columns
    order = np.argsort(ts, kind="stable")
    series = WindPowerSeries(timestamps=ts[order], powers=pw[order], resolution_s=resolution_s,
                             rated_capacity_mw=rated_capacity_mw)
    return series, LoadReport(rows_read=ts.size, rows_dropped=rows_dropped, segments=len(series.segment_bounds))


def _loadtxt_columns(raw: bytes, timestamp_column: str, power_column: str, delimiter: str) -> tuple | None:
    """``_read_columns``' result for the file's bytes ``raw`` by
    ``np.loadtxt``, or None where the row parser could read them otherwise."""
    text = raw.decode("utf-8-sig", "replace")
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    # csv alone: bytes not UTF-8, quotes, NUL, a bare \r, a field past its size limit, whitespace delimiters
    if (any(c in text for c in '\ufffd"\0') or delimiter.isspace()
            or np.count_nonzero(buf == ord("\r")) != np.count_nonzero(buf[ends[ends > 0] - 1] == ord("\r"))
            or np.diff(ends, prepend=-1, append=buf.size).max() > csv.field_size_limit()):
        return None
    header = [h.strip() for h in text.partition("\n")[0].split(delimiter)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no data rows; on older numpy, an integer parsed via a float (600.0)
        try:
            rows = np.loadtxt(io.StringIO(text), delimiter=delimiter, skiprows=1, comments=None, ndmin=1,
                              usecols=(header.index(timestamp_column), header.index(power_column)),
                              dtype=[("t", np.int64), ("p", np.float64)])
        except (ValueError, Warning):  # a column missing from the header too
            return None
    # one row per line after the header: loadtxt skips a blank line, which the row parser counts as dropped
    return (rows["t"], rows["p"], 0) if rows.size == ends.size - (raw[-1:] == b"\n") else None


def check_cells(line_no: int, *cells: str) -> None:
    """Refuse number cells that ``float`` reads but no export writes: one holding '_' (1_0) or,
    once stripped of the whitespace ``np.loadtxt`` skips too, a non-ASCII character (an Arabic-Indic 3)."""
    bad = [c for c in cells if "_" in c or not c.strip().isascii()]
    if bad:
        raise DataError(f"line {line_no}: '_' or a non-ASCII character in {' or '.join(map(repr, bad))}")


def _read_columns(reader, timestamp_column: str, power_column: str) -> tuple[np.ndarray, np.ndarray, int]:
    """The two named columns of every non-blank row, in file order, and the
    number of blank rows skipped."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    header = [h.strip() for h in header]
    try:
        ts_col = header.index(timestamp_column)
        pw_col = header.index(power_column)
    except ValueError:
        raise DataError(
            f"missing required columns {timestamp_column!r}/{power_column!r}; header is {header}"
        ) from None

    timestamps: list[int] = []
    powers: list[float] = []
    rows_dropped = 0
    width = max(ts_col, pw_col) + 1
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            rows_dropped += 1
            continue
        if len(row) < width:
            raise DataError(f"line {line_no}: expected at least {width} columns, got {len(row)}")
        check_cells(line_no, row[ts_col], row[pw_col])
        timestamps.append(_parse_timestamp(row[ts_col], line_no))
        try:
            powers.append(float(row[pw_col]))
        except ValueError:
            raise DataError(f"line {line_no}: unparseable power {row[pw_col]!r}") from None

    if not timestamps:
        raise DataError("no data rows in input")
    return np.asarray(timestamps, dtype=np.int64), np.asarray(powers, dtype=np.float64), rows_dropped


def write_series(series: WindPowerSeries, path, *, timestamp_column: str = "timestamp",
                 power_column: str = "power_mw", delimiter: str = ",") -> None:
    """Write the series back to delimited text, under a header naming
    ``timestamp_column`` and ``power_column``, with fields separated by
    ``delimiter`` (the keywords and defaults of ``load_series``).

    Powers are written with shortest round-trip formatting, so reloading
    yields bitwise-equal values. Rows go to ``csv.writer`` in blocks
    converted with ``tolist()``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow([timestamp_column, power_column])
        for start in range(0, len(series), 4096):
            writer.writerows(zip(series.timestamps[start:start + 4096].tolist(),
                                 map(repr, series.powers[start:start + 4096].tolist())))
