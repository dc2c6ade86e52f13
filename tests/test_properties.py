"""Randomized invariant checks across the data and env layers."""
import numpy as np
import pytest

from quantgym.envs import EnvConfig, PortfolioEnv, TradingEnv
from quantgym.market_data import (
    BarTable,
    CleaningPolicy,
    SplitSpec,
    clean,
    merge,
    split,
)

from conftest import (
    make_calendar,
    make_table,
    random_walk_table,
    simple_features,
    tables_equal,
)


def sparse_table(seed, T=12, n=3, density=0.75):
    """Random table with missing cells; every ticker keeps its first row."""
    rng = np.random.default_rng(seed)
    close = 50 * np.exp(np.cumsum(rng.normal(0, 0.02, (T, n)), axis=0))
    present = rng.random((T, n)) < density
    present[0] = True  # avoid empty tickers
    cal = make_calendar(T)
    grids = {}
    for name, arr in (("open", close.copy()), ("high", close * 1.01),
                      ("low", close * 0.99), ("close", close.copy()),
                      ("volume", np.full((T, n), 10.0))):
        arr = arr.copy()
        arr[~present] = np.nan
        grids[name] = arr
    return BarTable("1day", tuple(f"T{i}" for i in range(n)), cal,
                    grids["open"], grids["high"], grids["low"],
                    grids["close"], grids["volume"], present,
                    np.zeros((T, n), dtype=bool))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("rule", ["intersection", "union"])
def test_clean_idempotent_on_random_sparse_tables(seed, rule):
    table = sparse_table(seed)
    policy = CleaningPolicy(calendar_rule=rule)
    once = clean(table, policy)
    twice = clean(once, policy)
    assert tables_equal(once, twice)
    assert once.dense
    assert (once.low <= np.minimum(once.open, once.close)).all()
    assert (once.high >= np.maximum(once.open, once.close)).all()


@pytest.mark.parametrize("seed", range(10))
def test_split_partitions_selected_range(seed):
    rng = np.random.default_rng(seed)
    T = 20
    table = random_walk_table(T, 2, seed=seed)
    cuts = np.sort(rng.choice(np.arange(1, T), size=3, replace=False))
    a, b, c = (int(x) for x in cuts)
    cal = table.calendar

    def ts(i):
        return cal[i] if i < T else cal[-1] + np.timedelta64(86400, "s")

    spec = SplitSpec((cal[0], ts(a)), (ts(a), ts(b)), (ts(b), ts(c)))
    train, test, trade = split(table, spec)
    joined = np.concatenate([train.calendar, test.calendar, trade.calendar])
    np.testing.assert_array_equal(joined, cal[:c])
    assert train.n_steps + test.n_steps + trade.n_steps == c


@pytest.mark.parametrize("seed", range(10))
def test_merge_of_disjoint_slices_restores_table(seed):
    table = random_walk_table(14, 2, seed=seed)
    cut = 7
    first = table.slice_steps(0, cut)
    second = table.slice_steps(cut, 14)
    merged = merge([first, second])
    assert tables_equal(merged, table)


@pytest.mark.parametrize("allow_short", [False, True])
@pytest.mark.parametrize("allow_margin", [False, True])
def test_trading_accounting_under_all_account_modes(allow_short, allow_margin):
    rng = np.random.default_rng(hash((allow_short, allow_margin)) % 2**31)
    table = random_walk_table(30, 3, seed=1)
    config = EnvConfig(initial_capital=5_000.0, cost_rate=0.002, h_max=50,
                       allow_short=allow_short, allow_margin=allow_margin)
    env = TradingEnv(config, table, simple_features(table))
    state = env.reset()
    v0 = state.value
    total = 0.0
    while not env.done:
        transition = env.step(rng.uniform(-1, 1, 3))
        ns = transition.next_state
        assert abs(ns.value - (ns.prices @ ns.holdings + ns.balance)) < 1e-9
        if not allow_short:
            assert (ns.holdings >= 0).all()
        if not allow_margin:
            assert ns.balance >= 0.0
        total += transition.reward
    assert total == pytest.approx(env.state.value - v0, abs=1e-7)


@pytest.mark.parametrize("seed", range(6))
def test_portfolio_telescoping(seed):
    rng = np.random.default_rng(seed)
    table = random_walk_table(25, 4, seed=seed)
    env = PortfolioEnv(EnvConfig(initial_capital=3_000.0,
                                 turnover_cost_rate=0.002),
                       table, simple_features(table))
    state = env.reset()
    v0 = state.value
    total = 0.0
    while not env.done:
        total += env.step(rng.normal(0, 1, 4)).reward
    assert total == pytest.approx(env.state.value - v0, rel=1e-9)
