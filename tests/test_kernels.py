"""The fill kernel keeps its invariants; the population fill kernel
agrees with the scalar one row by row."""
import numpy as np
import pytest

from quantgym import kernels

from conftest import assert_bitwise_equal


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
