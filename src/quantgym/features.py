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
from .errors import FeatureError, reading
from .market_data import BarTable, format_timestamp, parse_timestamp, \
    to_datetime64

logger = logging.getLogger(__name__)

INDICATOR_DEFAULTS = {
    "MACD": (12, 26, 9),
    "RSI": (14,),
    "CCI": (20,),
    "ADX": (14,),
    "SMA": (20,),
    "EMA": (20,),
}


@dataclass(frozen=True)
class IndicatorSpec:
    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        kind = self.kind.upper()
        if kind not in INDICATOR_DEFAULTS:
            raise FeatureError(f"unknown indicator kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        params = tuple(int(p) for p in self.params) or INDICATOR_DEFAULTS[kind]
        if len(params) != len(INDICATOR_DEFAULTS[kind]):
            raise FeatureError(
                f"{kind} takes {len(INDICATOR_DEFAULTS[kind])} period(s), "
                f"got {params}")
        if any(p < 1 for p in params):
            raise FeatureError(f"{kind} periods must be >= 1, got {params}")
        object.__setattr__(self, "params", params)

    @property
    def name(self) -> str:
        return "_".join([self.kind.lower()] + [str(p) for p in self.params])


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


@dataclass(frozen=True)
class EventSeries:
    """Timestamped per-ticker scalar events (news sentiment, fundamentals)."""

    events: tuple  # of (enter_time datetime64[s], ticker, value)
    kind: str  # "sentiment" | "fundamental"

    def __post_init__(self):
        if self.kind not in ("sentiment", "fundamental"):
            raise FeatureError(f"unknown event kind {self.kind!r}")
        norm = tuple(
            (to_datetime64(ts), str(tk), float(v)) for ts, tk, v in self.events)
        object.__setattr__(self, "events", norm)


EVENTS_HEADER = "enter_time,ticker,value"


def load_events_csv(path: str, kind: str) -> EventSeries:
    """Load an event file (header: enter_time,ticker,value)."""
    rows = []
    stamps: dict[str, np.datetime64] = {}  # each distinct text parsed once
    with reading(path) as fh:
        header = fh.readline().strip()
        if header != EVENTS_HEADER:
            raise FeatureError(
                f"bad events header {header!r}, expected {EVENTS_HEADER}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FeatureError(f"{path}:{line_no}: expected 3 fields")
            try:
                ts = stamps.get(parts[0])
                if ts is None:
                    ts = stamps[parts[0]] = parse_timestamp(parts[0])
                value = float(parts[2])
            except ValueError as exc:
                raise FeatureError(f"{path}:{line_no}: {exc}") from None
            if not isfinite(value):
                raise FeatureError(
                    f"{path}:{line_no}: non-finite event value {parts[2]!r}")
            rows.append((ts, parts[1], value))
    # the rows are normalized already: check the kind on an empty series,
    # then hand it the rows as they are
    series = EventSeries((), kind)
    object.__setattr__(series, "events", tuple(rows))
    return series


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
            return (kernels.ema_kernel(close, p[0])
                    - kernels.ema_kernel(close, p[1]))
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
    """Stack indicator grids and pre-aligned extra columns into one tensor.

    Extra columns must share the table calendar ((T, n) arrays); feature
    order is declaration order: indicators first, then extras.
    """
    extra_columns = extra_columns or {}
    names: list[str] = []
    layers: list[np.ndarray] = []
    for spec in specs:
        names.append(spec.name)
        layers.append(compute_indicator(table, spec))
    for name, col in extra_columns.items():
        col = np.asarray(col, dtype=float)
        if col.shape != (table.n_steps, table.n_tickers):
            raise FeatureError(
                f"column {name!r} has shape {col.shape}, expected "
                f"{(table.n_steps, table.n_tickers)} (calendar mismatch)")
        names.append(name)
        layers.append(col)
    if not names:
        raise FeatureError("need at least one feature")
    if len(set(names)) != len(names):
        raise FeatureError(f"duplicate feature name in {names}")
    values = np.stack(layers, axis=-1)
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
    T = table.n_steps
    returns = np.zeros((T, n))
    cal = turbulence_calibration(window, n) if calibrated else 1.0
    with np.errstate(all="ignore"):
        returns[1:] = table.close[1:] / table.close[:-1] - 1.0
        values = kernels.turbulence_kernel(
            np.ascontiguousarray(returns), window, 1e-8, cal)
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
    (t0 - frequency, t0]. Fundamentals: the value of the latest event
    whose lagged effective date has passed, zero before any. Events for
    unknown tickers are skipped with a warning.
    """
    T, n = table.n_steps, table.n_tickers
    out = np.zeros((T, n))
    index = {tk: j for j, tk in enumerate(table.tickers)}
    evs = events.events
    cols = np.array([index.get(tk, -1) for _, tk, _ in evs], dtype=np.intp)
    skipped = {evs[k][1] for k in np.flatnonzero(cols < 0)}
    if skipped:
        logger.warning("align_events(): skipped events for unknown tickers %s",
                       ", ".join(sorted(skipped)))
    times = np.array([ts for ts, _, _ in evs], dtype="datetime64[s]")
    vals = np.array([v for _, _, v in evs], dtype=float)
    # by ticker, then time, ties in input order: each ticker's events
    # become one time-sorted slice
    order = np.lexsort((times, cols))
    times, vals, cols = times[order], vals[order], cols[order]
    starts = np.searchsorted(cols, np.arange(n + 1))

    cal = table.calendar
    if events.kind == "sentiment":
        # bar t's events are those in (edges[t], edges[t + 1]]
        edges = np.concatenate(
            (cal[:1] - np.timedelta64(table.freq_seconds, "s"), cal))
        for j in range(n):
            a, b = starts[j], starts[j + 1]
            bounds = a + np.searchsorted(times[a:b], edges, side="right")
            lo, hi = bounds[:-1], bounds[1:]
            # numpy's mean of one value x is x + 0.0 (so -0.0 becomes 0.0)
            one = hi - lo == 1
            out[one, j] = vals[lo[one]] + 0.0
            for t in np.flatnonzero(hi - lo > 1).tolist():
                out[t, j] = float(vals[lo[t]:hi[t]].mean())
    else:
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
