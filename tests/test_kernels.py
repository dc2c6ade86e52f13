"""The fill kernel keeps its invariants; the population fill kernel
agrees with the scalar one row by row, also on drawn accounts; the
chunked turbulence kernel, the stacked Wilder passes, CCI and MACD give
the bits of their step-by-step oracles."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantgym import kernels
from quantgym.features import IndicatorSpec, compute_indicator

from conftest import adx_oracle, assert_bitwise_equal, cci_oracle, \
    ema_oracle, make_table, rsi_oracle, turbulence_oracle


def fee_total(executed, prices, cost_rate):
    """The scalar kernel's fee total from a row of executed deltas: 0.0
    plus each sell's fee, then each buy's, in ticker order."""
    total = 0.0
    for side in (-1.0, 1.0):
        for qty, price in zip(executed.tolist(), prices.tolist()):
            if qty * side > 0.0:
                total += cost_rate * (abs(qty) * price)
    return total


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
        new_h, new_b, executed = kernels.execute_trades_population(
            prices, holdings, balance, deltas, cost_rate, allow_short,
            allow_margin)
        for p in range(P):
            h, b, e, c = kernels.execute_trades_kernel(
                prices, holdings[p], float(balance[p]), deltas[p], cost_rate,
                allow_short, allow_margin)
            assert_bitwise_equal(new_h[p], h)
            assert_bitwise_equal(new_b[p], b)
            assert_bitwise_equal(executed[p], e)
            assert_bitwise_equal(fee_total(executed[p], prices, cost_rate), c)


def test_execute_trades_population_takes_prices_per_row():
    rng = np.random.default_rng(9)
    for allow_short, allow_margin in [(False, False), (True, True)]:
        P, n = 6, 4
        prices = rng.uniform(1, 300, (P, n))
        prices[2, 1] = 0.0  # affords no share without margin
        holdings = np.floor(rng.uniform(0, 30, (P, n)))
        deltas = np.floor(rng.uniform(-40, 40, (P, n)))
        deltas[2, 1] = 5.0
        balance = rng.uniform(0, 3000, P)
        balance[1] = 0.0
        new_h, new_b, executed = kernels.execute_trades_population(
            prices, holdings, balance, deltas, 0.001, allow_short,
            allow_margin)
        for p in range(P):
            h, b, e, c = kernels.execute_trades_kernel(
                prices[p], holdings[p], float(balance[p]), deltas[p], 0.001,
                allow_short, allow_margin)
            assert_bitwise_equal(new_h[p], h)
            assert_bitwise_equal(new_b[p], b)
            assert_bitwise_equal(executed[p], e)
            assert_bitwise_equal(fee_total(executed[p], prices[p], 0.001), c)


@st.composite
def fill_cases(draw):
    """Arguments of ``execute_trades_population``: prices shared by every
    row or given per row, zeros among them; balances of 0.0, -0.0, below
    zero and NaN; both flags and three cost rates."""
    n, P = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    price = st.one_of(st.just(0.0), st.floats(0.01, 500.0))
    shape = draw(st.sampled_from([(n,), (P, n)]))
    prices = np.array(draw(st.lists(price, min_size=math.prod(shape),
                                    max_size=math.prod(shape)))).reshape(shape)
    shares = st.integers(-40, 40).map(float)
    holdings = np.array(draw(st.lists(shares, min_size=P * n,
                                      max_size=P * n))).reshape(P, n)
    deltas = np.array(draw(st.lists(shares, min_size=P * n,
                                    max_size=P * n))).reshape(P, n)
    balance = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, -250.0, np.nan]),
                  st.floats(-1000.0, 5000.0)), min_size=P, max_size=P)))
    return (prices, holdings, balance, deltas,
            draw(st.sampled_from([0.0, 0.001, 0.05])), draw(st.booleans()),
            draw(st.booleans()))


# in row 0, cash clips three buys in a row: to 99 of 100 shares, then
# to none of 30, twice
@example((np.array([10.0, 20.0, 30.0]), np.zeros((2, 3)),
          np.array([1000.0, 5000.0]), np.array([[100.0, 30.0, 30.0]] * 2),
          0.001, False, False))
@settings(max_examples=300, deadline=None)
@given(fill_cases())
def test_execute_trades_population_property(case):
    """Row by row, the population kernel gives the scalar kernel's bits."""
    prices, holdings, balance, deltas, cost_rate, allow_short, \
        allow_margin = case
    new_h, new_b, executed = kernels.execute_trades_population(
        prices, holdings, balance, deltas, cost_rate, allow_short,
        allow_margin)
    for p in range(len(balance)):
        row_prices = prices if prices.ndim == 1 else prices[p]
        h, b, e, c = kernels.execute_trades_kernel(
            row_prices, holdings[p], float(balance[p]), deltas[p], cost_rate,
            allow_short, allow_margin)
        assert_bitwise_equal(new_h[p], h)
        assert_bitwise_equal(new_b[p], b)
        assert_bitwise_equal(executed[p], e)
        assert_bitwise_equal(fee_total(executed[p], row_prices, cost_rate), c)


@st.composite
def close_grids(draw):
    """(close, window): n from 1 to 30 tickers, T - window - 1 steps just
    below, at or just above a multiple of the turbulence chunk, and maybe
    a flat stretch and NaN closes of either sign."""
    n = draw(st.integers(1, 30))
    window = draw(st.integers(n + 2, n + 12))
    chunk = kernels.TURBULENCE_CHUNK
    steps = max(0, chunk * draw(st.integers(0, 2))
                + draw(st.sampled_from((-1, 0, 1))))
    T = window + 1 + steps
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    close = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (T, n)), axis=0))
    if draw(st.booleans()):
        start = int(rng.integers(T))
        close[start:start + int(rng.integers(1, 3 * window))] = close[start]
    for _ in range(draw(st.integers(0, 2))):
        close[rng.integers(T), rng.integers(n)] = np.copysign(
            np.nan, draw(st.sampled_from((1.0, -1.0))))
    return close, window


def outcome(kernel, *args):
    """The kernel's result bytes, or its error."""
    try:
        with np.errstate(all="ignore"):
            return kernel(*args).tobytes()
    except np.linalg.LinAlgError as exc:
        return repr(exc)


def nan_in_a_chunk_tail():
    """Closes (132, 2) with a NaN at rows 58 and 129, window 4: step 129
    lies in the tail of a 63-step chunk, where numpy's product of two NaN
    keeps the second one's sign, while the one-step product keeps the
    first one's."""
    rng = np.random.default_rng(227)
    close = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (132, 2)), axis=0))
    close[58, 1] = close[129, 0] = np.nan
    return close, 4


def signed_nans_in_an_rsi_seed():
    """Closes (69, 7) with a NaN at rows 6 and 9 of ticker 1, the second
    one negative, window 9: with period 18 both moves lie in RSI's seed
    window, whose NaN sums in the kernel and in the oracle kept opposite
    signs until both wrote np.nan for every NaN output."""
    rng = np.random.default_rng(69)
    close = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (69, 7)), axis=0))
    close[6, 1] = np.nan
    close[9, 1] = -np.nan
    return close, 9


@settings(max_examples=60, deadline=None)
@given(case=close_grids(), period=st.integers(1, 20))
@example(case=nan_in_a_chunk_tail(), period=14)
@example(case=signed_nans_in_an_rsi_seed(), period=18)
def test_batched_kernels_equal_their_step_by_step_oracles(case, period):
    close, window = case
    returns = np.zeros_like(close)
    with np.errstate(all="ignore"):
        returns[1:] = close[1:] / close[:-1] - 1.0
    assert outcome(kernels.turbulence_kernel, returns, window, 1e-8, 0.9) \
        == outcome(turbulence_oracle, returns, window, 1e-8, 0.9)
    high, low = close * 1.01, close * 0.99
    assert outcome(kernels.rsi_kernel, close, period) == \
        outcome(rsi_oracle, close, period)
    assert outcome(kernels.adx_kernel, high, low, close, period) == \
        outcome(adx_oracle, high, low, close, period)
    assert outcome(kernels.cci_kernel, high, low, close, period) == \
        outcome(cci_oracle, high, low, close, period)
    slow = 2 * period
    if slow <= len(close):  # MACD as the features command computes it
        with np.errstate(all="ignore"):
            expected = ema_oracle(close, period) - ema_oracle(close, slow)
        assert_bitwise_equal(compute_indicator(
            make_table(close), IndicatorSpec("MACD", (period, slow, 9))),
            expected)
