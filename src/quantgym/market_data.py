"""OHLCV panel ingest, validation, cleaning, merging, and range splitting.

A BarTable is an immutable (T timestamps x n tickers) grid of bars at a
declared frequency. Raw ingested tables may be sparse (``present`` mask);
``clean`` densifies them on a policy calendar. Timestamps are normalized
to UTC on ingest and stored as datetime64[s]; input files must carry an
explicit UTC offset.
"""
from __future__ import annotations

import csv
import logging
import os
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from math import isfinite

import numpy as np

from .errors import DataError, IngestError, MergeConflictError, SplitError, \
    reading

logger = logging.getLogger(__name__)

CSV_HEADER = ("timestamp", "ticker", "open", "high", "low", "close", "volume")
PER_TICKER_HEADER = ("timestamp", "open", "high", "low", "close", "volume")

FREQUENCY_SECONDS = {
    "1min": 60,
    "5min": 300,
    "15min": 900,
    "30min": 1800,
    "1h": 3600,
    "1day": 86400,
    "1d": 86400,
}


def parse_epoch(text: str) -> int:
    """Parse an ISO-8601 instant with offset into UTC epoch seconds."""
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"unparsable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    return int(dt.astimezone(timezone.utc).timestamp())


def parse_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 instant with offset into a UTC datetime64[s]."""
    return np.datetime64(parse_epoch(text), "s")


def format_timestamp(ts) -> str:
    """ISO-8601 UTC text of a datetime64 or of epoch seconds."""
    epoch = int(np.datetime64(ts, "s").astype(np.int64))
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


def to_datetime64(value) -> np.datetime64:
    """Coerce datetime / ISO string / datetime64 to UTC datetime64[s]."""
    if isinstance(value, np.datetime64):
        return value.astype("datetime64[s]")
    if isinstance(value, datetime):
        if value.tzinfo is not None:
            value = value.astimezone(timezone.utc).replace(tzinfo=None)
        return np.datetime64(value).astype("datetime64[s]")
    if isinstance(value, str):
        try:
            return parse_timestamp(value)
        except ValueError:
            return np.datetime64(value).astype("datetime64[s]")
    raise TypeError(f"cannot interpret {value!r} as a timestamp")


def _bar_problem(o: float, h: float, l: float, c: float, v: float) -> str | None:
    if min(o, h, l, c) <= 0.0:
        return "non-positive price"
    if l > min(o, c) or h < max(o, c) or l > h:
        return "OHLC ordering violated (need low <= open,close <= high)"
    if v < 0.0:
        return "negative volume"
    return None


@dataclass(frozen=True, eq=False)
class BarTable:
    """Calendar-aligned OHLCV panel keyed by (ticker, timestamp)."""

    frequency: str
    tickers: tuple[str, ...]
    calendar: np.ndarray  # (T,) datetime64[s], strictly increasing
    open: np.ndarray  # (T, n) float64, NaN where absent
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    present: np.ndarray  # (T, n) bool
    synthetic: np.ndarray  # (T, n) bool, True for cells filled by clean()
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.frequency not in FREQUENCY_SECONDS:
            raise DataError(f"unknown frequency {self.frequency!r}")
        T, n = len(self.calendar), len(self.tickers)
        for name in ("open", "high", "low", "close", "volume", "present", "synthetic"):
            arr = getattr(self, name)
            if arr.shape != (T, n):
                raise DataError(f"{name} has shape {arr.shape}, expected {(T, n)}")
        if T > 1 and not np.all(self.calendar[1:] > self.calendar[:-1]):
            raise DataError("calendar is not strictly increasing")
        if len(set(self.tickers)) != n:
            raise DataError("duplicate tickers")
        for arr in (self.open, self.high, self.low, self.close,
                    self.volume, self.present, self.synthetic, self.calendar):
            arr.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return len(self.calendar)

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)

    @property
    def freq_seconds(self) -> int:
        return FREQUENCY_SECONDS[self.frequency]

    @property
    def dense(self) -> bool:
        return bool(self.present.all())

    def ticker_index(self, ticker: str) -> int:
        try:
            return self.tickers.index(ticker)
        except ValueError:
            raise DataError(f"unknown ticker {ticker!r}") from None

    def slice_steps(self, start: int, stop: int) -> "BarTable":
        """Sub-table over calendar rows [start, stop)."""
        return BarTable(
            frequency=self.frequency,
            tickers=self.tickers,
            calendar=self.calendar[start:stop].copy(),
            open=self.open[start:stop].copy(),
            high=self.high[start:stop].copy(),
            low=self.low[start:stop].copy(),
            close=self.close[start:stop].copy(),
            volume=self.volume[start:stop].copy(),
            present=self.present[start:stop].copy(),
            synthetic=self.synthetic[start:stop].copy(),
        )


def tables_equal(a: BarTable, b: BarTable, check_synthetic: bool = True) -> bool:
    if a.frequency != b.frequency or a.tickers != b.tickers:
        return False
    if a.n_steps != b.n_steps or not np.array_equal(a.calendar, b.calendar):
        return False
    if not np.array_equal(a.present, b.present):
        return False
    if check_synthetic and not np.array_equal(a.synthetic, b.synthetic):
        return False
    m = a.present
    for name in ("open", "high", "low", "close", "volume"):
        if not np.array_equal(getattr(a, name)[m], getattr(b, name)[m]):
            return False
    return True


@dataclass(frozen=True)
class CleaningPolicy:
    """How to densify a sparse panel.

    calendar_rule: "intersection" keeps timestamps covered by every kept
    ticker (default, so every ticker trades every step); "union" keeps
    all timestamps. fill_rule: "fill" forward-fills from the last real
    close then backward-fills leading gaps; "drop-ticker" drops any
    ticker with missing cells on the final calendar. min_coverage drops
    tickers covering less than that fraction of the union calendar.
    """

    calendar_rule: str = "intersection"
    fill_rule: str = "fill"
    min_coverage: float = 0.0

    def __post_init__(self):
        if self.calendar_rule not in ("intersection", "union"):
            raise DataError(f"unknown calendar_rule {self.calendar_rule!r}")
        if self.fill_rule not in ("fill", "drop-ticker"):
            raise DataError(f"unknown fill_rule {self.fill_rule!r}")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise DataError("min_coverage must be within [0, 1]")


@dataclass(frozen=True)
class SplitSpec:
    """Three ordered, disjoint half-open [start, end) timestamp ranges."""

    train_range: tuple
    test_range: tuple
    trade_range: tuple

    def normalized(self) -> list[tuple[np.datetime64, np.datetime64]]:
        ranges = []
        for raw in (self.train_range, self.test_range, self.trade_range):
            start, end = to_datetime64(raw[0]), to_datetime64(raw[1])
            if not start < end:
                raise SplitError(f"empty or inverted range [{start}, {end})")
            ranges.append((start, end))
        for (_, prev_end), (next_start, _) in zip(ranges, ranges[1:]):
            if next_start < prev_end:
                raise SplitError("ranges must be disjoint and ordered train < test < trade")
        return ranges


def _build_table(frequency: str, keys, bars) -> BarTable:
    """keys: distinct (ticker, epoch seconds) cells; bars: their
    (o, h, l, c, v) in key order, as rows or flat."""
    tickers = tuple(sorted({tk for tk, _ in keys}))
    column = {tk: j for j, tk in enumerate(tickers)}
    epochs, t_idx = np.unique(
        np.fromiter((ts for _, ts in keys), np.int64, len(keys)),
        return_inverse=True)
    j_idx = np.fromiter((column[tk] for tk, _ in keys), np.intp, len(keys))
    T, n = len(epochs), len(tickers)
    grids = np.full((5, T, n), np.nan)
    grids[:, t_idx, j_idx] = np.asarray(bars, dtype=float).reshape(-1, 5).T
    present = np.zeros((T, n), dtype=bool)
    present[t_idx, j_idx] = True
    return BarTable(frequency, tickers, epochs.astype("datetime64[s]"),
                    *grids, present, np.zeros((T, n), dtype=bool))


def _parse_row(fields: list[str], line_no: int, ticker: str | None,
               epochs: dict[str, int]) -> tuple:
    """(ticker, epoch seconds, (o, h, l, c, v)) of one validated row;
    ``epochs`` memoizes the parse of each distinct timestamp text."""
    offset = 0 if ticker is not None else 1
    expected = len(PER_TICKER_HEADER) if ticker is not None else len(CSV_HEADER)
    if len(fields) != expected:
        raise IngestError(f"expected {expected} fields, got {len(fields)}", line_no)
    ts = epochs.get(fields[0])
    if ts is None:
        try:
            ts = epochs[fields[0]] = parse_epoch(fields[0])
        except ValueError as exc:
            raise IngestError(str(exc), line_no) from None
    if ticker is None:
        ticker = fields[1]
    if not ticker:
        raise IngestError("empty ticker", line_no)
    try:
        values = tuple(map(float, fields[offset + 1:offset + 6]))
    except ValueError:
        raise IngestError("non-numeric price/volume field", line_no) from None
    if not all(map(isfinite, values)):
        raise IngestError("non-finite price/volume field", line_no)
    problem = _bar_problem(*values)
    if problem:
        raise IngestError(f"{problem} for ({ticker}, {format_timestamp(ts)})", line_no)
    return ticker, ts, values


def _ingest_rows(reader, ticker: str | None, rows: dict, bars: array,
                 source: str):
    """Map each row's (ticker, epoch) key to its line in ``rows`` and
    append its bar to ``bars``."""
    epochs: dict[str, int] = {}
    for line_no, fields in enumerate(reader, start=2):
        if not fields:
            continue
        tk, ts, values = _parse_row(fields, line_no, ticker, epochs)
        first = rows.setdefault((tk, ts), line_no)
        if first != line_no:  # a key repeats only within one file
            raise IngestError(
                f"duplicate key ({tk}, {format_timestamp(ts)}), "
                f"first seen at {source}:{first}", line_no)
        bars.extend(values)


def ingest_csv(path: str, frequency: str) -> BarTable:
    """Load a combined OHLCV csv (header: timestamp,ticker,open,...,volume).

    The returned table may be sparse; every row is validated (prices
    positive, OHLC ordering, parsable UTC-offset timestamp) and duplicate
    (ticker, timestamp) keys are rejected with their line number.
    """
    if frequency not in FREQUENCY_SECONDS:
        raise DataError(f"unknown frequency {frequency!r}")
    rows: dict = {}
    bars = array("d")
    with reading(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise IngestError(
                f"bad header {header!r}, expected {','.join(CSV_HEADER)}", 1)
        _ingest_rows(reader, None, rows, bars, path)
    if not rows:
        raise IngestError("file has no data rows")
    return _build_table(frequency, rows, bars)


def ingest_dir(path: str, frequency: str) -> BarTable:
    """Load a directory of one-file-per-ticker csvs (no ticker column).

    The ticker is the file name stem; all files share the combined
    schema minus the ticker column.
    """
    if not os.path.isdir(path):
        raise IngestError(f"no such directory: {path}")
    rows: dict = {}
    bars = array("d")
    names = sorted(f for f in os.listdir(path) if f.endswith(".csv"))
    if not names:
        raise IngestError(f"no csv files under {path}")
    for name in names:
        ticker = os.path.splitext(name)[0]
        full = os.path.join(path, name)
        with reading(full, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != PER_TICKER_HEADER:
                raise IngestError(
                    f"bad header in {name}: {header!r}, "
                    f"expected {','.join(PER_TICKER_HEADER)}", 1)
            _ingest_rows(reader, ticker, rows, bars, full)
    return _build_table(frequency, rows, bars)


def write_csv(table: BarTable, path: str) -> None:
    """Write present cells in (ticker, timestamp) order, combined schema."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for j, ticker in enumerate(table.tickers):
            for t in range(table.n_steps):
                if not table.present[t, j]:
                    continue
                writer.writerow([
                    format_timestamp(table.calendar[t]), ticker,
                    repr(float(table.open[t, j])), repr(float(table.high[t, j])),
                    repr(float(table.low[t, j])), repr(float(table.close[t, j])),
                    repr(float(table.volume[t, j])),
                ])


def clean(table: BarTable, policy: CleaningPolicy) -> BarTable:
    """Densify a table on the policy calendar.

    Coverage is measured against the union calendar; tickers under
    min_coverage are dropped first (and listed in the result's
    ``meta["dropped_tickers"]``). Filled cells carry the nearest real
    close as o=h=l=c with zero volume and synthetic=True.
    """
    if table.n_tickers < 1:
        raise DataError("clean() needs at least one ticker")
    if table.n_steps < 2:
        raise DataError("clean() needs at least two timestamps")

    coverage = table.present.mean(axis=0)
    keep = [j for j in range(table.n_tickers) if coverage[j] >= policy.min_coverage]
    dropped = [table.tickers[j] for j in range(table.n_tickers) if j not in keep]
    if not keep:
        raise DataError("all tickers dropped by min_coverage")

    present = table.present[:, keep]
    if policy.calendar_rule == "intersection":
        row_mask = present.all(axis=1)
        if not row_mask.any():
            raise DataError("intersection calendar is empty")
    else:
        row_mask = present.any(axis=1)

    rows = np.flatnonzero(row_mask)
    calendar = table.calendar[rows].copy()
    cols = np.array(keep)

    def take(arr):
        return arr[np.ix_(rows, cols)].copy()

    o, h, l, c = take(table.open), take(table.high), take(table.low), take(table.close)
    v = take(table.volume)
    pres = take(table.present)
    synth = take(table.synthetic)

    filled = 0
    if not pres.all():
        if policy.fill_rule == "drop-ticker":
            keep2 = np.flatnonzero(pres.all(axis=0))
            dropped += [table.tickers[keep[j]] for j in range(len(keep))
                        if j not in set(keep2.tolist())]
            if len(keep2) == 0:
                raise DataError("all tickers dropped by fill_rule=drop-ticker")
            cols2 = keep2
            o, h, l, c, v = (arr[:, cols2] for arr in (o, h, l, c, v))
            pres, synth = pres[:, cols2], synth[:, cols2]
            keep = [keep[j] for j in cols2.tolist()]
        else:
            T, m = pres.shape
            # row of each cell's latest real bar, -1 before the first one
            last = np.maximum.accumulate(
                np.where(pres, np.arange(T)[:, None], -1), axis=0)
            empty = np.flatnonzero(last[-1] < 0)
            if len(empty):
                raise DataError(f"ticker {table.tickers[keep[empty[0]]]} has "
                                f"no bars on the calendar")
            # a gap takes the latest real close, a leading gap the first one;
            # a gap after a present cell whose close is NaN stays unfilled
            source = np.where(last < 0, np.argmax(pres, axis=0), last)
            fill = c[source, np.arange(m)]
            gap = ~pres & ((last < 0) | ~np.isnan(fill))
            o, h, l, c = (np.where(gap, fill, arr) for arr in (o, h, l, c))
            v = np.where(gap, 0.0, v)
            synth = synth | gap
            filled = int(gap.sum())
            pres = np.ones_like(pres)

    if dropped:
        logger.warning("clean(): dropped tickers %s", ", ".join(sorted(dropped)))
    tickers = tuple(table.tickers[j] for j in keep)
    result = BarTable(table.frequency, tickers, calendar, o, h, l, c, v,
                      pres.astype(bool), synth.astype(bool),
                      meta={"dropped_tickers": tuple(sorted(dropped)),
                            "filled_cells": filled})
    return result


def merge(tables: list[BarTable]) -> BarTable:
    """Union panels keyed by (ticker, timestamp); differing duplicates fail."""
    if not tables:
        raise DataError("merge() needs at least one table")
    freq = tables[0].frequency
    for t in tables[1:]:
        if t.frequency != freq:
            raise DataError(
                f"frequency mismatch: {t.frequency!r} vs {freq!r}")
    rows: dict = {}
    synth_keys = set()
    for table in tables:
        epochs = table.calendar.astype(np.int64).tolist()
        for j, ticker in enumerate(table.tickers):
            for i in range(table.n_steps):
                if not table.present[i, j]:
                    continue
                key = (ticker, epochs[i])
                values = (table.open[i, j], table.high[i, j], table.low[i, j],
                          table.close[i, j], table.volume[i, j])
                if key in rows:
                    if rows[key] != values:
                        raise MergeConflictError(
                            f"conflicting cell for ({ticker}, "
                            f"{format_timestamp(key[1])})")
                    continue
                rows[key] = values
                if table.synthetic[i, j]:
                    synth_keys.add(key)
    merged = _build_table(freq, rows, list(rows.values()))
    if synth_keys:
        synth = np.array(merged.synthetic, copy=True)
        for ticker, ts in synth_keys:
            i = int(np.searchsorted(merged.calendar, np.datetime64(ts, "s")))
            synth[i, merged.tickers.index(ticker)] = True
        merged = BarTable(merged.frequency, merged.tickers, merged.calendar,
                          merged.open, merged.high, merged.low, merged.close,
                          merged.volume, merged.present, synth)
    return merged


def split(table: BarTable, spec: SplitSpec) -> tuple[BarTable, BarTable, BarTable]:
    """Cut the table into train/test/trade sub-tables along the calendar."""
    parts = []
    for name, (start, end) in zip(("train", "test", "trade"), spec.normalized()):
        mask = (table.calendar >= start) & (table.calendar < end)
        if not mask.any():
            raise SplitError(f"{name} range [{start}, {end}) selects no timestamps")
        idx = np.flatnonzero(mask)
        parts.append(table.slice_steps(int(idx[0]), int(idx[-1]) + 1))
    return parts[0], parts[1], parts[2]
