"""Shared builders for synthetic tables, features, and environments."""
from __future__ import annotations

import numpy as np
import pytest

from quantgym.envs import EnvConfig, PortfolioEnv, TradingEnv
from quantgym.features import FeatureMatrix, IndicatorSpec, compute_feature_matrix
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


def assert_bitwise_equal(actual, expected) -> None:
    """Same shape and the same float64 bits (so -0.0 differs from 0.0)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
