"""Wind-power time series ingestion.

Reads delimited text exports (one record per line, a timestamp column and a
power column) into an immutable, uniformly sampled series. Missing steps
never get interpolated: the series is split into contiguous segments at any
gap, and downstream differencing/windowing never crosses a segment boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterator

import numpy as np

from .errors import DataError

@dataclass(frozen=True)
class ColumnSchema:
    """Column mapping for delimited input files."""

    timestamp: str = "timestamp"
    power: str = "power_mw"
    delimiter: str = ","


@dataclass(frozen=True)
class LoadReport:
    """Bookkeeping from one load: raw rows seen, rows skipped, gaps split."""

    rows_read: int
    rows_dropped: int
    gaps: int
    segments: int


@dataclass(frozen=True)
class WindPowerSeries:
    """Uniformly sampled wind-power series, possibly in several segments.

    Timestamps increase strictly, by ``resolution_s`` seconds within a
    segment; a longer stride starts the next segment. ``segment_bounds`` is
    derived from the timestamps; one that is given must equal it. Arrays are
    read-only; a constructed series is safe to share across threads.
    """

    timestamps: np.ndarray
    powers: np.ndarray
    resolution_s: int
    rated_capacity_mw: float
    site_id: str = ""
    segment_bounds: tuple[tuple[int, int], ...] = field(default=())

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
        given = tuple((int(start), int(stop)) for start, stop in self.segment_bounds)
        if given and given != bounds:
            raise DataError(
                f"segment_bounds {given} differ from the segments the timestamps give, {bounds}: "
                "a segment ends exactly where the stride exceeds resolution_s"
            )
        _validate_points(ts, pw, self.rated_capacity_mw)
        ts.setflags(write=False)
        pw.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "powers", pw)
        object.__setattr__(self, "segment_bounds", tuple(bounds))

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (timestamps, powers) views, one per contiguous segment."""
        for start, stop in self.segment_bounds:
            yield self.timestamps[start:stop], self.powers[start:stop]


def _validate_points(ts: np.ndarray, pw: np.ndarray, capacity: float) -> None:
    if np.any(ts <= 0):
        bad = int(ts[ts <= 0][0])
        raise DataError(f"timestamps must be strictly positive, got {bad}")
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
        pass
    else:
        if not value.is_integer():
            raise DataError(f"line {line_no}: fractional-second timestamp {text!r}")
        return int(value)
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
    schema: ColumnSchema | None = None,
    *,
    resolution_s: int,
    rated_capacity_mw: float,
    site_id: str = "",
) -> tuple[WindPowerSeries, LoadReport]:
    """Read a delimited text file into a validated WindPowerSeries.

    Rows are sorted by timestamp; exact duplicates, sub-resolution strides,
    and powers outside [0, rated_capacity_mw] are hard errors. Any missing
    step starts a new segment; no power value is ever fabricated.

    Returns the series together with a LoadReport (rows read / dropped blank
    rows / gaps split / segment count).
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return _read_delimited(fh, schema or ColumnSchema(), resolution_s, rated_capacity_mw, site_id)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read series file {path}: {exc}") from exc


def _read_delimited(fh, schema, resolution_s, rated_capacity_mw, site_id):
    reader = csv.reader(fh, delimiter=schema.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    header = [h.strip() for h in header]
    try:
        ts_col = header.index(schema.timestamp)
        pw_col = header.index(schema.power)
    except ValueError:
        raise DataError(
            f"missing required columns {schema.timestamp!r}/{schema.power!r}; header is {header}"
        ) from None

    timestamps: list[int] = []
    powers: list[float] = []
    rows_read = 0
    rows_dropped = 0
    width = max(ts_col, pw_col) + 1
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            rows_dropped += 1
            continue
        rows_read += 1
        if len(row) < width:
            raise DataError(f"line {line_no}: expected at least {width} columns, got {len(row)}")
        timestamps.append(_parse_timestamp(row[ts_col], line_no))
        try:
            powers.append(float(row[pw_col]))
        except ValueError:
            raise DataError(f"line {line_no}: unparseable power {row[pw_col]!r}") from None

    if not timestamps:
        raise DataError("no data rows in input")

    ts = np.asarray(timestamps, dtype=np.int64)
    pw = np.asarray(powers, dtype=np.float64)
    order = np.argsort(ts, kind="stable")
    series = WindPowerSeries(
        timestamps=ts[order],
        powers=pw[order],
        resolution_s=resolution_s,
        rated_capacity_mw=rated_capacity_mw,
        site_id=site_id,
    )
    segments = len(series.segment_bounds)
    report = LoadReport(rows_read=rows_read, rows_dropped=rows_dropped, gaps=segments - 1, segments=segments)
    return series, report


def write_series(series: WindPowerSeries, path, schema: ColumnSchema | None = None) -> None:
    """Write the series back to delimited text.

    Powers are written with shortest round-trip formatting, so reloading
    yields bitwise-equal values.
    """
    schema = schema or ColumnSchema()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=schema.delimiter)
        writer.writerow([schema.timestamp, schema.power])
        for t, p in zip(series.timestamps, series.powers):
            writer.writerow([int(t), repr(float(p))])

