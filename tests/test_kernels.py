"""Compiled kernels agree with their pure-Python bodies; the population
fill kernel agrees with the scalar one row by row."""
import numpy as np
import pytest

from quantgym import kernels
from quantgym.accel import NUMBA_ENABLED, python_impl

from conftest import assert_bitwise_equal

needs_numba = pytest.mark.skipif(
    not NUMBA_ENABLED, reason="numba disabled or unavailable")


def walk(seed, T=400):
    rng = np.random.default_rng(seed)
    close = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, T)))
    high = close * (1 + np.abs(rng.normal(0, 0.004, T)))
    low = close * (1 - np.abs(rng.normal(0, 0.004, T)))
    return high, low, close


@needs_numba
@pytest.mark.parametrize("seed", range(3))
def test_indicator_kernels_match_python_bodies(seed):
    high, low, close = walk(seed)
    cases = [
        (kernels.sma_kernel, (close, 12)),
        (kernels.ema_kernel, (close, 12)),
        (kernels.rsi_kernel, (close, 14)),
        (kernels.cci_kernel, (high, low, close, 20)),
        (kernels.adx_kernel, (high, low, close, 14)),
    ]
    for fn, args in cases:
        compiled = fn(*args)
        plain = python_impl(fn)(*args)
        np.testing.assert_array_equal(np.isnan(compiled), np.isnan(plain))
        mask = ~np.isnan(compiled)
        np.testing.assert_allclose(compiled[mask], plain[mask], rtol=1e-12)


@needs_numba
def test_turbulence_kernel_matches_python_body():
    rng = np.random.default_rng(5)
    returns = rng.normal(0, 0.01, (300, 4))
    compiled = kernels.turbulence_kernel(returns, 50, 1e-8, 1.0)
    plain = python_impl(kernels.turbulence_kernel)(returns, 50, 1e-8, 1.0)
    mask = np.isfinite(compiled)
    np.testing.assert_allclose(compiled[mask], plain[mask], rtol=1e-10)


@needs_numba
def test_execute_trades_kernel_matches_python_body():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        prices = rng.uniform(5, 500, n)
        holdings = np.floor(rng.uniform(0, 20, n))
        deltas = np.floor(rng.uniform(-15, 15, n))
        balance = float(rng.uniform(0, 5000))
        args = (prices, holdings, balance, deltas, 0.001, False, False)
        ch, cb, ce, cc = kernels.execute_trades_kernel(*args)
        ph, pb, pe, pc = python_impl(kernels.execute_trades_kernel)(*args)
        np.testing.assert_array_equal(ch, ph)
        np.testing.assert_array_equal(ce, pe)
        assert cb == pb
        assert cc == pc


def test_execute_trades_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        prices = rng.uniform(1, 100, n)
        holdings = np.floor(rng.uniform(0, 30, n))
        deltas = np.floor(rng.uniform(-40, 40, n))
        balance = float(rng.uniform(0, 2000))
        new_h, new_b, executed, cost = kernels.execute_trades_kernel(
            prices, holdings, balance, deltas, 0.001, False, False)
        assert (new_h >= 0).all()
        assert new_b >= 0.0
        assert cost >= 0.0
        np.testing.assert_allclose(new_h, holdings + executed, atol=1e-12)
        # cash conservation: balance change = -trades value - fees
        trade_value = float(executed @ prices)
        assert new_b == pytest.approx(balance - trade_value - cost, abs=1e-9)


@pytest.mark.parametrize("allow_short", [False, True])
@pytest.mark.parametrize("allow_margin", [False, True])
def test_execute_trades_population_matches_scalar_rows(allow_short,
                                                       allow_margin):
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        P = int(rng.integers(1, 9))
        prices = rng.uniform(1, 300, n)
        holdings = np.floor(rng.uniform(-10 if allow_short else 0, 30, (P, n)))
        deltas = np.floor(rng.uniform(-40, 40, (P, n)))
        deltas[0] = -holdings[0]  # full liquidation
        balance = rng.uniform(-500, 3000, P)  # < 0: a margin account
        balance[rng.random(P) < 0.3] = 0.0
        cost_rate = float(rng.choice([0.0, 0.001, 0.05]))
        new_h, new_b, executed, cost = kernels.execute_trades_population(
            prices, holdings, balance, deltas, cost_rate, allow_short,
            allow_margin)
        for p in range(P):
            h, b, e, c = kernels.execute_trades_kernel(
                prices, holdings[p], float(balance[p]), deltas[p], cost_rate,
                allow_short, allow_margin)
            assert_bitwise_equal(new_h[p], h)
            assert_bitwise_equal(new_b[p], b)
            assert_bitwise_equal(executed[p], e)
            assert_bitwise_equal(cost[p], c)
