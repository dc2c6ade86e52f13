"""Shared builders for synthetic tables, features, and environments."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from quantgym.envs import (
    EnvConfig,
    PortfolioEnv,
    PortfolioState,
    TradingEnv,
    TradingState,
    Transition,
    softmax,
)
from quantgym.features import EventSeries, FeatureMatrix, IndicatorSpec, \
    compute_feature_matrix
from quantgym import kernels
from quantgym.kernels import execute_trades_kernel
from quantgym.market_data import BarTable

START = np.datetime64("2022-01-03T00:00:00", "s")
DAY = np.timedelta64(86400, "s")


def make_calendar(n_steps: int, start=START, step=DAY) -> np.ndarray:
    return (start + np.arange(n_steps) * step).astype("datetime64[s]")


def make_table(close: np.ndarray, tickers=None, frequency="1day",
               start=START, high=None, low=None, open_=None,
               volume=None) -> BarTable:
    """Dense table from a (T, n) close grid; OHLC wraps close by default."""
    close = np.asarray(close, dtype=float)
    if close.ndim == 1:
        close = close[:, None]
    T, n = close.shape
    tickers = tuple(tickers or (f"T{i}" for i in range(n)))
    open_ = close.copy() if open_ is None else np.asarray(open_, float)
    high = close * 1.01 if high is None else np.asarray(high, float)
    low = close * 0.99 if low is None else np.asarray(low, float)
    volume = np.full((T, n), 1000.0) if volume is None else np.asarray(volume, float)
    ones = np.ones((T, n), dtype=bool)
    return BarTable(frequency, tickers, make_calendar(T, start), open_, high,
                    low, close, volume, ones, np.zeros_like(ones))


def random_walk_table(T: int, n: int, seed: int = 0, vol: float = 0.01,
                      drift: float = 0.0) -> BarTable:
    rng = np.random.default_rng(seed)
    base = rng.uniform(20, 200, n)
    close = base * np.exp(np.cumsum(rng.normal(drift, vol, (T, n)), axis=0))
    return make_table(close)


def simple_features(table: BarTable, period: int = 2) -> FeatureMatrix:
    return compute_feature_matrix(table, [IndicatorSpec("SMA", (period,))])


def make_trading_env(table: BarTable, config: EnvConfig | None = None,
                     feature_period: int = 2, **kwargs) -> TradingEnv:
    config = config or EnvConfig(initial_capital=10_000.0, cost_rate=0.001)
    return TradingEnv(config, table, simple_features(table, feature_period),
                      **kwargs)


def make_portfolio_env(table: BarTable, config: EnvConfig | None = None,
                       feature_period: int = 2, **kwargs) -> PortfolioEnv:
    config = config or EnvConfig(initial_capital=10_000.0)
    return PortfolioEnv(config, table, simple_features(table, feature_period),
                        **kwargs)


def reference_step(env, action) -> Transition:
    """``env.step`` written per ticker for one account: the scalar rule of
    each env kind, with ``execute_trades_kernel`` filling the trades. It
    is the oracle of ``step`` and of the lockstep population steps."""
    action = env._check_steppable(action)
    state = env.state
    cfg = env.config
    t, t2 = state.t, state.t + 1
    triggered = bool(env._risk_triggered(t))
    prices_next = env.table.close[t2].astype(float)
    features_next = env.features.values[t2].copy()
    if isinstance(env, TradingEnv):
        if triggered:
            deltas = -state.holdings.copy()
        else:
            deltas = np.rint(np.clip(action, -1.0, 1.0) * cfg.h_max)
        new_h, new_b, applied, cost = execute_trades_kernel(
            np.ascontiguousarray(state.prices), state.holdings.astype(float),
            float(state.balance), np.ascontiguousarray(deltas, dtype=float),
            cfg.cost_rate, cfg.allow_short, cfg.allow_margin)
        next_state = TradingState(t2, env.table.calendar[t2], float(new_b),
                                  new_h, prices_next, features_next)
    else:
        applied = np.full(env.n, 1.0 / env.n) if triggered else softmax(action)
        turnover = 0.5 * np.abs(applied - state.weights).sum()
        cost = state.value * cfg.turnover_cost_rate * turnover
        growth = float(applied @ (prices_next / state.prices))
        next_state = PortfolioState(t2, env.table.calendar[t2],
                                    state.value * growth - cost, prices_next,
                                    features_next, applied)
    reward = (next_state.value - state.value) * cfg.reward_scale
    env._state = next_state
    return Transition(state, applied, reward, next_state, t2 >= env.end - 1,
                      {"cost": float(cost), "risk_triggered": triggered})


def event_series(rows, kind: str) -> EventSeries:
    """The EventSeries of (enter_time datetime64, ticker, value) rows."""
    return EventSeries(
        np.array([ts for ts, _, _ in rows], "datetime64[s]"),
        np.array([str(tk) for _, tk, _ in rows], dtype=object),
        np.array([float(v) for _, _, v in rows]), kind)


def turbulence_oracle(returns, window, eps_scale, calibration):
    """``kernels.turbulence_kernel`` one step at a time: a covariance, a
    ridge and a solve per step. It is the oracle of the chunked kernel. A
    NaN form gives ``np.nan``, since which operand's NaN a product keeps
    depends on the shape numpy multiplies."""
    T, n = returns.shape
    out = np.full(T, np.nan)
    if T <= window + 1:
        return out
    sums = kernels._window_sums(returns[:-1], window)
    diagonal = np.diag_indices(n)
    for t in range(window + 1, T):
        mu = sums[t - window] / window
        centered = returns[t - window:t] - mu
        cov = np.ascontiguousarray(centered.T) @ centered / (window - 1.0)
        eps = eps_scale * kernels._added_in_order(np.diagonal(cov)) / n
        if eps <= 0.0:
            eps = 1e-12
        cov[diagonal] += eps
        dev = returns[t] - mu
        z = np.linalg.solve(cov, dev)
        d = kernels._added_in_order(dev * z)
        if d < 0.0:
            d = 0.0
        out[t] = np.nan if np.isnan(d) else calibration * d
    return out


def _columns(grid):
    """The index of each column of a (T, ...) grid, for ``grid[:, j]``."""
    return [(slice(None),) + j for j in np.ndindex(grid.shape[1:])]


def canonical_nan(out):
    """out with every NaN, of either sign, as ``np.nan``: the indicator
    kernels' NaN."""
    return np.where(np.isnan(out), np.nan, out)


def cci_oracle(high, low, close, period):
    """``kernels.cci_kernel`` one ticker and one step at a time: the
    window's mean and its mean absolute deviation each added oldest first
    from 0.0."""
    out = np.full(close.shape, np.nan)
    tp = (high + low + close) / 3.0
    for j in _columns(close):
        column = tp[j].tolist()
        for t in range(period - 1, len(column)):
            window = column[t - period + 1:t + 1]
            m = np.float64(kernels._added_in_order(np.array(window))) / period
            mad = np.float64(0.0)
            for x in window:
                mad += abs(x - m)
            mad /= period
            out[j][t] = 0.0 if mad == 0.0 else (column[t] - m) / (0.015 * mad)
    return canonical_nan(out)


def ema_oracle(x, period):
    """``kernels.ema_kernel`` one ticker and one step at a time."""
    out = np.full(x.shape, np.nan)
    if period > len(x):
        return out
    alpha = 2.0 / (period + 1.0)
    for j in _columns(x):
        column = x[j].tolist()
        prev = np.float64(kernels._added_in_order(np.array(column[:period])))
        prev /= period
        out[j][period - 1] = prev
        for t in range(period, len(column)):
            prev = prev + alpha * (column[t] - prev)
            out[j][t] = prev
    return canonical_nan(out)


def rsi_oracle(close, period):
    """``kernels.rsi_kernel`` with one Wilder pass per series."""
    out = np.full(close.shape, np.nan)
    if len(close) < period + 1:
        return out
    diff = close[1:] - close[:-1]
    gain = np.where(diff > 0.0, diff, 0.0)
    loss = np.where(diff < 0.0, -diff, 0.0)
    first = diff[:period]
    avg_gain = kernels._wilder(gain, period)
    avg_loss = kernels._wilder(loss, period,
                               np.where(first > 0.0, 0.0, -first))
    rsi = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    out[period:] = np.where(avg_loss == 0.0,
                            np.where(avg_gain == 0.0, 50.0, 100.0), rsi)
    return canonical_nan(out)


def adx_oracle(high, low, close, period):
    """``kernels.adx_kernel`` with one smoothing loop per move series."""
    T = len(close)
    out = np.full(close.shape, np.nan)
    if T < 2 * period:
        return out
    up = high[1:] - high[:-1]
    dn = low[:-1] - low[1:]
    pdm = np.where((up > dn) & (up > 0.0), up, 0.0)
    mdm = np.where((dn > up) & (dn > 0.0), dn, 0.0)
    r1 = high[1:] - low[1:]
    r2 = np.abs(high[1:] - close[:-1])
    r3 = np.abs(low[1:] - close[:-1])
    r12 = np.where(r2 > r1, r2, r1)
    tr = np.where(r3 > r12, r3, r12)
    smoothed = []
    for move in (tr, pdm, mdm):
        s = np.empty((T - period,) + close.shape[1:])
        s[0] = kernels._window_sums(move[:period], period)[0]
        for k in range(1, T - period):
            s[k] = s[k - 1] - s[k - 1] / period + move[period + k - 1]
        smoothed.append(s)
    s_tr, s_pdm, s_mdm = smoothed
    pdi = 100.0 * s_pdm / s_tr
    mdi = 100.0 * s_mdm / s_tr
    denom = pdi + mdi
    dx = np.where(denom == 0.0, 0.0, 100.0 * np.abs(pdi - mdi) / denom)
    dx = np.where(s_tr == 0.0, 0.0, dx)
    out[2 * period - 1:] = kernels._wilder(dx, period)
    return canonical_nan(out)


def tables_equal(a: BarTable, b: BarTable, check_synthetic: bool = True) -> bool:
    """Same frequency, tickers, calendar and present cells (and synthetic
    cells when asked), and equal bars wherever a cell is present."""
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


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the most bytes tracemalloc saw allocated at once
    during the call above what was allocated at its start)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def assert_bitwise_equal(actual, expected) -> None:
    """Same shape and the same float64 bits (so -0.0 differs from 0.0)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
