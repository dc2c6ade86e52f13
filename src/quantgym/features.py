"""Technical indicators, the turbulence risk index, and event alignment.

Everything here is causal: a value at step t depends only on bars at or
before t. Undefined warmup prefixes are NaN; FeatureMatrix.warmup is the
first row where every feature is finite.
"""
from __future__ import annotations

import calendar as _calendar
import logging
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from math import isfinite

import numpy as np

from . import kernels
from .config import IndicatorSpec, check_domain
from .errors import FeatureError, reading
from .market_data import BarTable, _codes, _number, _read_blocks, \
    format_timestamp, parse_epoch

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Per-time, per-ticker feature tensor feeding environment states."""

    calendar: np.ndarray  # (T,)
    tickers: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray  # (T, n, I) float64
    warmup: int

    def __post_init__(self):
        T, n, I = len(self.calendar), len(self.tickers), len(self.feature_names)
        if self.values.shape != (T, n, I):
            raise FeatureError(
                f"values shape {self.values.shape} != {(T, n, I)}")
        if len(set(self.feature_names)) != I:
            raise FeatureError("duplicate feature name")
        finite = np.isfinite(self.values[self.warmup:])
        if not finite.all():
            # the first in time, then ticker, then feature
            t, i, f = np.argwhere(~finite)[0]
            raise FeatureError(
                f"non-finite {self.feature_names[f]} for ({self.tickers[i]}, "
                f"{format_timestamp(self.calendar[self.warmup + t])}) "
                f"past warmup")
        self.values.setflags(write=False)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True, eq=False)
class TurbulenceSeries:
    calendar: np.ndarray
    values: np.ndarray  # (T,), NaN while undefined
    window: int


@dataclass(frozen=True, eq=False)
class EventSeries:
    """Timestamped per-ticker scalar events (news sentiment, fundamentals),
    as columns: event i enters at times[i] for tickers[i] with values[i]."""

    times: np.ndarray  # (m,) datetime64[s]
    tickers: np.ndarray  # (m,) str objects
    values: np.ndarray  # (m,) float64
    kind: str  # "sentiment" | "fundamental"

    def __post_init__(self):
        check_domain("data", "events_kind", self.kind, FeatureError)
        if not len(self.times) == len(self.tickers) == len(self.values):
            raise FeatureError("event columns differ in length")


EVENTS_HEADER = "enter_time,ticker,value"


def load_events_csv(path: str, kind: str) -> EventSeries:
    """Load an event file (header: enter_time,ticker,value).

    The rows after the header are read in blocks by numpy's C parser,
    and their timestamps by ``parse_epochs``; a file either refuses, and
    a pipe, are read by the row loop, which raises the first bad row's
    error with its line.
    """
    with reading(path) as fh:
        header = fh.readline().strip()
        if header != EVENTS_HEADER:
            raise FeatureError(
                f"bad events header {header!r}, expected {EVENTS_HEADER}")
        columns = None
        if fh.seekable():  # a pipe is read once, by the row loop
            columns = _read_event_columns(fh)
            if columns is None:
                fh.seek(0)
                fh.readline()
        if columns is None:
            columns = _event_rows(fh, path)
    return EventSeries(*columns, kind)


def _read_event_columns(fh):
    """(times, tickers, values) of the rows of ``fh`` after its header,
    read by ``_read_blocks`` and checked whole-array as ``_event_rows``
    checks each row; None when a row fails."""
    # news stamps seldom repeat, so each block's are parsed as they come
    columns = _read_blocks(fh, ("enter_time", "ticker"), ("value",), None,
                           stamps="enter_time")
    if columns is None:
        return None
    (epochs, (names, codes)), (values,) = columns
    if not np.isfinite(values).all():
        return None
    return (epochs.astype("datetime64[s]"),
            np.array(names, dtype=object)[codes], values)


def _event_rows(lines, path: str):
    """(times, tickers, values) of the event ``lines`` after the header,
    each row validated; the first bad row raises its FeatureError
    (``path:line``). Each distinct timestamp text is parsed once."""
    epochs, tickers, values = [], [], []
    stamps: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FeatureError(f"{path}:{line_no}: expected 3 fields")
        try:
            ts = stamps.get(parts[0])
            if ts is None:
                ts = stamps[parts[0]] = parse_epoch(parts[0])
            value = _number(parts[2])
        except ValueError as exc:
            raise FeatureError(f"{path}:{line_no}: {exc}") from None
        if not isfinite(value):
            raise FeatureError(
                f"{path}:{line_no}: non-finite event value {parts[2]!r}")
        epochs.append(ts)
        tickers.append(parts[1])
        values.append(value)
    return (np.array(epochs, np.int64).astype("datetime64[s]"),
            np.array(tickers, dtype=object), np.array(values, dtype=float))


def compute_indicator(table: BarTable, spec: IndicatorSpec) -> np.ndarray:
    """(T, n) indicator values; NaN over the warmup prefix.

    The table must be dense and long enough for the slowest period.
    Prices that overflow the arithmetic give non-finite values, which
    ``FeatureMatrix`` rejects by name, not floating-point warnings.
    """
    if not table.dense:
        raise FeatureError("indicators need a dense (cleaned) table")
    T = table.n_steps
    p = spec.params
    if spec.kind == "MACD":
        needed = p[1]
    elif spec.kind == "RSI":
        needed = p[0] + 1
    elif spec.kind == "ADX":
        needed = 2 * p[0]
    else:
        needed = p[0]
    if needed > T:
        raise FeatureError(
            f"{spec.name} needs {needed} steps, table has {T}")

    high, low, close = table.high, table.low, table.close
    with np.errstate(all="ignore"):
        if spec.kind == "SMA":
            return kernels.sma_kernel(close, p[0])
        if spec.kind == "EMA":
            return kernels.ema_kernel(close, p[0])
        if spec.kind == "MACD":
            macd = kernels.ema_kernel(close, p[0])
            macd -= kernels.ema_kernel(close, p[1])
            return macd
        if spec.kind == "RSI":
            return kernels.rsi_kernel(close, p[0])
        if spec.kind == "CCI":
            return kernels.cci_kernel(high, low, close, p[0])
        if spec.kind == "ADX":
            return kernels.adx_kernel(high, low, close, p[0])
    raise FeatureError(f"unknown indicator kind {spec.kind!r}")


def compute_feature_matrix(table: BarTable, specs: list[IndicatorSpec],
                           extra_columns: dict[str, np.ndarray] | None = None,
                           ) -> FeatureMatrix:
    """Write indicator grids and pre-aligned extra columns into one tensor.

    Extra columns must share the table calendar ((T, n) arrays), which is
    checked before any indicator runs; feature order is declaration
    order: indicators first, then extras.
    """
    extra_columns = extra_columns or {}
    T, n = table.n_steps, table.n_tickers
    columns = [np.asarray(col, dtype=float) for col in extra_columns.values()]
    for name, col in zip(extra_columns, columns):
        if col.shape != (T, n):
            raise FeatureError(
                f"column {name!r} has shape {col.shape}, expected "
                f"{(T, n)} (calendar mismatch)")
    names = [spec.name for spec in specs] + list(extra_columns)
    if not names:
        raise FeatureError("need at least one feature")
    values = np.empty((T, n, len(names)))
    for i, spec in enumerate(specs):
        values[:, :, i] = compute_indicator(table, spec)
    for i, col in enumerate(columns, start=len(specs)):
        values[:, :, i] = col
    if len(set(names)) != len(names):
        raise FeatureError(f"duplicate feature name in {names}")
    finite = np.isfinite(values).all(axis=(1, 2))
    defined = np.flatnonzero(finite)
    if len(defined) == 0:
        raise FeatureError("no step has all features defined")
    warmup = int(defined[0])
    return FeatureMatrix(table.calendar, table.tickers, tuple(names),
                         values, warmup)


def turbulence_calibration(window: int, n_assets: int) -> float:
    """Scale making the index mean exactly n_assets under i.i.d. returns.

    The raw trailing-window Mahalanobis form overshoots its asymptotic
    chi-square mean by (W+1)(W-1)/(W(W-n-2)) at window W; this constant
    cancels that exactly and tends to 1 as W grows.
    """
    W, n = window, n_assets
    if W <= n + 2:
        return 1.0
    return W * (W - n - 2) / ((W + 1.0) * (W - 1.0))


def turbulence(table: BarTable, window: int = 252,
               calibrated: bool = True) -> TurbulenceSeries:
    """Mahalanobis distance of today's cross-asset returns from recent history.

    Simple returns at t are measured against the mean/covariance of the
    `window` return rows strictly before t, with a trace-scaled ridge on
    the covariance. ``calibrated=False`` gives the raw quadratic form.
    """
    n = table.n_tickers
    if n < 1:
        raise FeatureError("turbulence needs at least one ticker")
    if window < n + 2:
        raise FeatureError(f"window must be >= n+2 = {n + 2}, got {window}")
    if not table.dense:
        raise FeatureError("turbulence needs a dense (cleaned) table")
    returns = np.zeros((table.n_steps, n))
    cal = turbulence_calibration(window, n) if calibrated else 1.0
    with np.errstate(all="ignore"):
        np.divide(table.close[1:], table.close[:-1], out=returns[1:])
        returns[1:] -= 1.0
        values = kernels.turbulence_kernel(returns, window, 1e-8, cal)
    return TurbulenceSeries(table.calendar, values, window)


def _add_months(dt: datetime, months: int) -> datetime:
    month_index = dt.year * 12 + (dt.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    day = min(dt.day, _calendar.monthrange(year, month)[1])
    return dt.replace(year=year, month=month, day=day)


def fundamental_effective_from(enter_time: np.datetime64) -> np.datetime64:
    """First instant a fundamental event may influence trading.

    Period-end dates are inclusive, so the lag runs from the following
    midnight: one day, then two calendar months (day clamped to month
    length). A quarter ending June 30 becomes tradable September 1.
    """
    epoch = int(enter_time.astype("datetime64[s]").astype(np.int64))
    try:
        dt = datetime.fromtimestamp(epoch, tz=timezone.utc) + timedelta(days=1)
        shifted = _add_months(dt, 2)
    except (OverflowError, ValueError):
        raise FeatureError(f"fundamental event at {enter_time} takes effect "
                           f"outside years 1-9999") from None
    return np.datetime64(int(shifted.timestamp()), "s")


def align_events(table: BarTable, events: EventSeries) -> np.ndarray:
    """(T, n) event feature column aligned to the table calendar.

    Sentiment: the mean of event values entering during the previous one
    bar interval (t-1, t], zero when quiet; the first bar's interval is
    (t0 - frequency, t0]. The means are numpy's, bit for bit: every bin
    of 1 to 7 events is summed at once, 0.0 plus its k-th values added
    column by column, and divided by its count; a bin of 8 or more keeps
    ``ndarray.mean``, which sums pairwise. Fundamentals: the value of
    the latest event whose lagged effective date has passed, zero before
    any. Events for unknown tickers are skipped with a warning.
    """
    T, n = table.n_steps, table.n_tickers
    out = np.zeros((T, n))
    index = {tk: j for j, tk in enumerate(table.tickers)}
    names, codes = _codes(events.tickers.tolist())
    column = np.array([index.get(tk, -1) for tk in names], dtype=np.intp)
    skipped = [tk for tk, j in zip(names, column) if j < 0]
    if skipped:
        logger.warning("align_events(): skipped events for unknown tickers %s",
                       ", ".join(sorted(skipped)))
    times, vals, cols = events.times, events.values, column[codes]
    # by ticker, then time, ties in input order: each ticker's events
    # become one time-sorted slice
    order = np.lexsort((times, cols))
    times, vals, cols = times[order], vals[order], cols[order]

    cal = table.calendar
    if events.kind == "sentiment":
        # bar t's events are those in (edges[t], edges[t + 1]]; each bin
        # with an event is one run of the sorted events, so it is found
        # without a (T, n) grid
        edges = np.concatenate(
            (cal[:1] - np.timedelta64(table.freq_seconds, "s"), cal))
        bar = np.searchsorted(edges, times, side="left") - 1
        kept = (cols >= 0) & (bar >= 0) & (bar < T)
        cell, vals = bar[kept] * n + cols[kept], vals[kept]
        lo = np.flatnonzero(np.diff(cell, prepend=-1))
        count = np.diff(lo, append=len(cell))
        cell = cell[lo]
        # numpy's mean of fewer than 8 values is (0.0 + x0 + x1 + ...) / k,
        # so every short bin's k-th value is added in one column; a longer
        # bin sums pairwise in its own mean
        short = count < 8
        first, k_short = lo[short], count[short]
        total = np.zeros(len(first))
        # a sum that overflows gives inf, which FeatureMatrix rejects by
        # name, without a floating-point warning
        with np.errstate(all="ignore"):
            for k in range(int(k_short.max(initial=0))):
                more = k_short > k
                total[more] += vals[first[more] + k]
            out.flat[cell[short]] = total / k_short
            for c, a, k in zip(cell[~short].tolist(), lo[~short].tolist(),
                               count[~short].tolist()):
                out.flat[c] = vals[a:a + k].mean()
    else:
        starts = np.searchsorted(cols, np.arange(n + 1))
        for j in range(n):
            a, b = starts[j], starts[j + 1]
            if a == b:
                continue
            eff = np.array(
                [fundamental_effective_from(ts) for ts in times[a:b]],
                dtype="datetime64[s]")
            order = np.argsort(eff, kind="stable")
            # latest event effective at or before each step
            pos = np.searchsorted(eff[order], cal, side="right") - 1
            out[:, j] = np.where(pos >= 0, vals[a:b][order][pos], 0.0)
    return out
