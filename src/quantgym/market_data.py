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
import warnings
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from math import inf, isfinite

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
    try:
        return int(dt.astimezone(timezone.utc).timestamp())
    except OverflowError:  # the offset moves it out of years 1-9999
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from None


def parse_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 instant with offset into a UTC datetime64[s]."""
    return np.datetime64(parse_epoch(text), "s")


def format_timestamp(ts) -> str:
    """ISO-8601 UTC text of a datetime64 or of epoch seconds."""
    epoch = int(np.datetime64(ts, "s").astype(np.int64))
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


def to_datetime64(value) -> np.datetime64:
    """Coerce datetime / ISO string / datetime64 to UTC datetime64[s].

    Text with a UTC offset is converted to UTC; other text is read as
    UTC by ``np.datetime64``."""
    if isinstance(value, np.datetime64):
        return value.astype("datetime64[s]")
    if isinstance(value, datetime):
        if value.tzinfo is not None:
            value = value.astimezone(timezone.utc).replace(tzinfo=None)
        return np.datetime64(value).astype("datetime64[s]")
    if isinstance(value, str):
        try:
            aware = datetime.fromisoformat(value).tzinfo is not None
        except ValueError:
            aware = False
        if aware:  # an instant; out of range in UTC raises ValueError
            return parse_timestamp(value)
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


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and the index of each
    value among them."""
    index = dict.fromkeys(values)
    for k, value in enumerate(index):
        index[value] = k
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp,
                                    len(values))


def _table(frequency: str, names: list, codes, epochs, bars) -> BarTable:
    """The sparse table of m distinct cells: cell i is ticker
    ``names[codes[i]]`` at UTC epoch second ``epochs[i]`` and holds
    column i of the (5, m) o, h, l, c, v ``bars``. ``names`` are distinct
    and each one has a cell."""
    order = sorted(range(len(names)), key=names.__getitem__)
    column = np.empty(len(names), dtype=np.intp)
    column[order] = np.arange(len(names))
    j_idx = column[codes]
    calendar, t_idx = np.unique(epochs, return_inverse=True)
    T, n = len(calendar), len(names)
    grids = np.full((5, T, n), np.nan)
    grids[:, t_idx, j_idx] = bars
    present = np.zeros((T, n), dtype=bool)
    present[t_idx, j_idx] = True
    return BarTable(frequency, tuple(names[k] for k in order),
                    calendar.astype("datetime64[s]"), *grids, present,
                    np.zeros((T, n), dtype=bool))


def _key_columns(keys, bars):
    """(names, codes, epochs, (5, m) bars) of distinct (ticker, epoch)
    ``keys`` and their (o, h, l, c, v) in key order, as rows or flat."""
    return (*_codes([tk for tk, _ in keys]),
            np.fromiter((ts for _, ts in keys), np.int64, len(keys)),
            np.asarray(bars, dtype=float).reshape(-1, 5).T)


def _build_table(frequency: str, keys, bars) -> BarTable:
    """keys: distinct (ticker, epoch seconds) cells; bars: their
    (o, h, l, c, v) in key order, as rows or flat."""
    return _table(frequency, *_key_columns(keys, bars))


def _bars_ok(o, h, l, c, v):
    """True exactly for a finite bar ``_bar_problem`` accepts, elementwise
    on arrays: a NaN or an infinity fails one of the comparisons."""
    return ((0.0 < l) & (l <= o) & (o <= h) & (l <= c) & (c <= h) & (h < inf)
            & (0.0 <= v) & (v < inf))


def _number(text: str) -> float:
    """``text`` as numpy's C reader parses a float: surrounding whitespace
    is skipped, and the rest must be ASCII with no ``_`` between digits,
    two spellings only Python's ``float`` reads."""
    core = text.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"not a number: {text!r}")
    return float(core)


def _ingest_rows(reader, ticker: str | None, rows: dict, bars: array,
                 source: str):
    """Validate each row of file ``source``, map its (ticker, epoch) key
    to its line in ``rows`` and append its (o, h, l, c, v) to ``bars``.

    ``ticker`` is None for the combined format, whose second field names
    the ticker. Each distinct timestamp text is parsed once. Ingest runs
    this loop only on a file ``_read_columns`` refuses, to raise its first
    error with the line it is on.
    """
    expected = len(CSV_HEADER) if ticker is None else len(PER_TICKER_HEADER)
    first_value = expected - 5  # the open's index
    first_line = rows.setdefault
    append = bars.extend
    epochs: dict[str, int] = {}
    for line_no, fields in enumerate(reader, start=2):
        if not fields:
            continue
        if len(fields) != expected:
            raise IngestError(f"expected {expected} fields, got {len(fields)}",
                              source, line_no)
        ts = epochs.get(fields[0])
        if ts is None:
            try:
                ts = epochs[fields[0]] = parse_epoch(fields[0])
            except ValueError as exc:
                raise IngestError(str(exc), source, line_no) from None
        tk = fields[1] if ticker is None else ticker
        if not tk:
            raise IngestError("empty ticker", source, line_no)
        try:
            values = tuple(map(_number, fields[first_value:]))
        except ValueError:
            raise IngestError("non-numeric price/volume field", source,
                              line_no) from None
        if not _bars_ok(*values):
            if not all(map(isfinite, values)):
                raise IngestError("non-finite price/volume field", source,
                                  line_no)
            raise IngestError(f"{_bar_problem(*values)} for "
                              f"({tk}, {format_timestamp(ts)})",
                              source, line_no)
        first = first_line((tk, ts), line_no)
        if first != line_no:  # a key repeats only within one file
            raise IngestError(
                f"duplicate key ({tk}, {format_timestamp(ts)}), "
                f"first seen at {source}:{first}", source, line_no)
        append(values)


def _read_columns(fh, ticker: str | None):
    """(names, codes, epochs, (5, m) bars), as ``_table`` takes them, of
    the rows of ``fh`` after its header, read in one pass of numpy's C
    parser and checked whole-array as ``_ingest_rows`` checks each row;
    None when a row fails."""
    keys = ("timestamp",) if ticker is not None else ("timestamp", "ticker")
    try:
        with warnings.catch_warnings():  # it warns on a header-only file
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            data = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar='"', ndmin=1,
                dtype=[(k, object) for k in keys] + [(k, float) for k in
                                                     CSV_HEADER[2:]])
    except ValueError:  # a field count, a number or the text encoding
        return None
    texts, at = _codes(data["timestamp"].tolist())
    names, codes = _codes(data["ticker"].tolist() if ticker is None
                          else [ticker] * len(data))
    try:  # each distinct text once
        epochs = np.array([parse_epoch(t) for t in texts], np.int64)[at]
    except ValueError:
        return None
    bars = np.array([data[k] for k in CSV_HEADER[2:]])
    cells = np.lexsort((epochs, codes))  # a repeated key sorts by its twin
    repeated = (np.diff(codes[cells]) == 0) & (np.diff(epochs[cells]) == 0)
    if "" in names or not _bars_ok(*bars).all() or repeated.any():
        return None
    return names, codes, epochs, bars


def _read_market_file(path: str, header: tuple, ticker: str | None):
    """(names, codes, epochs, (5, m) bars) of one validated market csv;
    the first bad row raises its IngestError (``path:line``)."""
    with reading(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None or tuple(found) != header:
            raise IngestError(
                f"bad header {found!r}, expected {','.join(header)}", path, 1)
        if fh.seekable():  # a pipe is read once, by the row loop
            columns = _read_columns(fh, ticker)
            if columns is not None:
                return columns
            fh.seek(0)
            next(reader)
        rows: dict = {}
        bars = array("d")
        _ingest_rows(reader, ticker, rows, bars, path)
    return _key_columns(rows, bars)


def ingest_csv(path: str, frequency: str) -> BarTable:
    """Load a combined OHLCV csv (header: timestamp,ticker,open,...,volume).

    The returned table may be sparse; every row is validated (prices
    positive, OHLC ordering, parsable UTC-offset timestamp) and duplicate
    (ticker, timestamp) keys are rejected with their line number.
    """
    if frequency not in FREQUENCY_SECONDS:
        raise DataError(f"unknown frequency {frequency!r}")
    columns = _read_market_file(path, CSV_HEADER, None)
    if not columns[0]:
        raise IngestError("file has no data rows", path)
    return _table(frequency, *columns)


def ingest_dir(path: str, frequency: str) -> BarTable:
    """Load a directory of one-file-per-ticker csvs (no ticker column).

    The ticker is the file name stem; all files share the combined
    schema minus the ticker column.
    """
    if not os.path.isdir(path):
        raise IngestError(f"no such directory: {path}")
    files = sorted(f for f in os.listdir(path) if f.endswith(".csv"))
    if not files:
        raise IngestError(f"no csv files under {path}")
    names, codes, epochs, bars = zip(*(
        _read_market_file(os.path.join(path, f), PER_TICKER_HEADER,
                          os.path.splitext(f)[0]) for f in files))
    first = np.cumsum([0] + [len(part) for part in names])
    return _table(frequency, sum(names, []),
                  np.concatenate([c + k for c, k in zip(codes, first)]),
                  np.concatenate(epochs), np.concatenate(bars, axis=1))


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
