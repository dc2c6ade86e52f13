"""OHLCV panel ingest, validation and cleaning.

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
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain, count, islice
from math import inf, isfinite

import numpy as np

from .config import FREQUENCY_SECONDS, check_domain
from .errors import DataError, IngestError, reading

logger = logging.getLogger(__name__)

CSV_HEADER = ("timestamp", "ticker", "open", "high", "low", "close", "volume")
PER_TICKER_HEADER = ("timestamp", "open", "high", "low", "close", "volume")

# the rows numpy's C reader parses at a time; a block's text fields are
# coded and dropped before the next block is read
BLOCK_ROWS = 1 << 12


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


# the one spelling ``parse_epochs`` hands to numpy: "0" marks a digit
_UTC_SHAPE = np.frombuffer(b"0000-00-00T00:00:00+00:00", np.uint8)
_UTC_DIGITS = (_UTC_SHAPE == ord("0")) & (np.arange(25) < 19)


def parse_epochs(texts: list[str]) -> np.ndarray:
    """``parse_epoch`` of each text, as int64 epoch seconds.

    A column whose every text is ``YYYY-MM-DDTHH:MM:SS+00:00`` in ASCII
    digits with a year from 0001 is parsed in one numpy pass, which
    refuses the dates and times ``fromisoformat`` refuses in that shape.
    Any other column is parsed once per distinct text by ``parse_epoch``,
    whose error it raises.
    """
    try:  # a text that is not ASCII raises UnicodeEncodeError
        column = np.array(texts, dtype="S")
    except ValueError:
        column = None
    if column is not None and column.dtype.itemsize == 25:
        codes = column.view(np.uint8).reshape(-1, 25)
        # numpy also reads the years 0000, " 999" and "+999", which
        # fromisoformat refuses
        if ((codes[:, ~_UTC_DIGITS] == _UTC_SHAPE[~_UTC_DIGITS]).all()
                and (codes[:, _UTC_DIGITS] - ord("0") <= 9).all()
                and (codes[:, :4] != ord("0")).any(axis=1).all()):
            try:
                return column.astype("S19").astype(
                    "datetime64[s]").astype(np.int64)
            except ValueError:  # say February 30, hour 24 or second 60
                pass
    distinct, at = _codes(texts)
    return np.array([parse_epoch(t) for t in distinct], np.int64)[at]


def format_timestamp(ts) -> str:
    """ISO-8601 UTC text of a datetime64 or of epoch seconds."""
    epoch = int(np.datetime64(ts, "s").astype(np.int64))
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


def format_timestamps(values) -> list[str]:
    """``format_timestamp`` of each datetime64 in ``values``, in one call."""
    return [text + "+00:00" for text in np.datetime_as_string(
        np.asarray(values, "datetime64[s]"), unit="s").tolist()]


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
        check_domain("data", "frequency", self.frequency, DataError)
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
        for f in fields(self):
            check_domain("data", f.name, getattr(self, f.name), DataError)


def _first_rows(index: dict, values: list, start: int = 0) -> np.ndarray:
    """For each value, numbered from ``start``, the number of its first
    occurrence: ``index`` maps each value seen so far to it and takes the
    new ones."""
    return np.fromiter(map(index.setdefault, values, count(start)), np.intp,
                       len(values))


def _ranked(index: dict, first: np.ndarray) -> tuple[list, np.ndarray]:
    """The keys of ``index`` in first-seen order, and the index among
    them of each value whose first occurrence ``first`` holds, both as
    ``_first_rows`` left them."""
    rank = np.empty(len(first), np.intp)
    rank[np.fromiter(index.values(), np.intp, len(index))] = \
        np.arange(len(index))
    return list(index), rank[first]


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and the index of each
    value among them."""
    index: dict = {}
    return _ranked(index, _first_rows(index, values))


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


def _read_blocks(fh, texts: tuple, numbers: tuple, quotechar: str | None,
                 stamps: str | None = None):
    """The rows of ``fh`` after its header, parsed by numpy's C reader
    ``BLOCK_ROWS`` rows at a time: for each field in ``texts`` its
    distinct texts in first-seen order and each row's index among them,
    and the fields in ``numbers`` as one (len(numbers), m) float array;
    None when the reader refuses a block. The field named ``stamps``, one
    of ``texts`` whose texts seldom repeat, is parsed by ``parse_epochs``
    a block at a time instead, into one int64 array of epochs; a block it
    refuses gives None too.

    Only one block's texts are held as objects. A row whose quoted
    newline falls on a block edge is split between two blocks: the reader
    refuses its first part, or, when the quote is in the last field, the
    second part leaves the next block a first text that is no timestamp,
    which the caller's parse refuses.
    """
    dtype = [(k, object) for k in texts] + [(k, float) for k in numbers]
    index: list[dict] = [{} for _ in texts]
    first = [[np.empty(0, np.intp)] for _ in texts]
    values = [np.empty((len(numbers), 0))]
    rows = 0
    try:
        with warnings.catch_warnings():  # it warns on a block of blank lines
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            for line in fh:  # a block starts at the first unread line
                block = np.loadtxt(
                    chain((line,), islice(fh, BLOCK_ROWS - 1)),
                    delimiter=",", comments=None, quotechar=quotechar,
                    ndmin=1, dtype=dtype)
                for seen, parts, key in zip(index, first, texts):
                    column = block[key].tolist()
                    parts.append(parse_epochs(column) if key == stamps
                                 else _first_rows(seen, column, rows))
                values.append(np.array([block[k] for k in numbers]))
                rows += len(block)
    except ValueError:  # a field count, a number, the text encoding or a stamp
        return None
    return ([np.concatenate(parts) if key == stamps
             else _ranked(seen, np.concatenate(parts))
             for seen, parts, key in zip(index, first, texts)],
            np.concatenate(values, axis=1))


def _read_columns(fh, ticker: str | None):
    """(names, codes, epochs, (5, m) bars), as ``_table`` takes them, of
    the rows of ``fh`` after its header, read by ``_read_blocks`` and
    checked whole-array as ``_ingest_rows`` checks each row; None when a
    row fails."""
    columns = _read_blocks(fh, ("timestamp",) if ticker is not None else
                           ("timestamp", "ticker"), CSV_HEADER[2:], '"')
    if columns is None:
        return None
    coded, bars = columns
    texts, at = coded[0]
    if ticker is None:
        names, codes = coded[1]
    else:
        names, codes = [ticker] if len(at) else [], np.zeros(len(at), np.intp)
    try:  # each distinct text once
        epochs = parse_epochs(texts)[at]
    except ValueError:
        return None
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
    check_domain("data", "frequency", frequency, DataError)
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
    calendar = table.calendar[rows]
    cols = np.array(keep)

    def take(arr):  # a new grid, which clean fills in place
        return arr[np.ix_(rows, cols)]

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
            last = np.where(pres, np.arange(T)[:, None], -1)
            np.maximum.accumulate(last, axis=0, out=last)
            empty = np.flatnonzero(last[-1] < 0)
            if len(empty):
                raise DataError(f"ticker {table.tickers[keep[empty[0]]]} has "
                                f"no bars on the calendar")
            # a gap takes the latest real close, a leading gap the first one;
            # a gap after a present cell whose close is NaN stays unfilled
            lead = last < 0
            np.copyto(last, np.argmax(pres, axis=0), where=lead)
            fill = c[last, np.arange(m)]
            del last
            gap = ~pres & (lead | ~np.isnan(fill))
            del lead
            for arr in (o, h, l, c):
                np.copyto(arr, fill, where=gap)
            del fill
            np.copyto(v, 0.0, where=gap)
            synth |= gap
            filled = int(gap.sum())
            pres = np.ones_like(pres)

    if dropped:
        logger.warning("clean(): dropped tickers %s", ", ".join(sorted(dropped)))
    tickers = tuple(table.tickers[j] for j in keep)
    return BarTable(table.frequency, tickers, calendar, o, h, l, c, v, pres,
                    synth, meta={"dropped_tickers": tuple(sorted(dropped)),
                                 "filled_cells": filled})
