"""Environment mechanics: accounting, constraints, risk control, batching."""
import numpy as np
import pytest

from quantgym.envs import (
    EnvConfig,
    EnvPopulation,
    PortfolioEnv,
    TradingEnv,
    batch_step,
    population_returns,
    softmax,
    write_episode_trace,
)
from quantgym.errors import EnvError

from conftest import (
    assert_bitwise_equal,
    make_table,
    make_portfolio_env,
    make_trading_env,
    random_walk_table,
    simple_features,
)


def flat_table(T=12, n=1, price=10.0):
    flat = np.full((T, n), price)
    return make_table(flat, high=flat.copy(), low=flat.copy())


class TestTradingReset:
    def test_initial_state(self):
        env = make_trading_env(random_walk_table(20, 3))
        state = env.reset()
        assert state.value == env.config.initial_capital
        assert (state.holdings == 0).all()
        assert state.t == env.start

    def test_start_before_warmup_rejected(self):
        table = random_walk_table(30, 2)
        env = make_trading_env(table, feature_period=5)
        with pytest.raises(EnvError, match="warmup"):
            env.reset(start=2)

    def test_deterministic_resets(self):
        env = make_trading_env(random_walk_table(20, 2))
        s1, s2 = env.reset(), env.reset()
        assert s1.t == s2.t and s1.balance == s2.balance
        np.testing.assert_array_equal(s1.holdings, s2.holdings)
        np.testing.assert_array_equal(s1.prices, s2.prices)

    def test_observation_layout(self):
        table = random_walk_table(20, 3)
        env = make_trading_env(table)
        state = env.reset()
        obs = state.observation()
        n, I = 3, 1
        assert obs.shape == (1 + n * (I + 2),)
        assert obs[0] == state.balance
        np.testing.assert_array_equal(obs[1:1 + n], state.prices)
        np.testing.assert_array_equal(obs[-n:], state.holdings)


class TestTradingStep:
    def test_zero_action_zero_reward_without_exposure(self):
        env = make_trading_env(random_walk_table(20, 2))
        env.reset()
        transition = env.step(np.zeros(2))
        assert transition.reward == 0.0
        assert transition.info["cost"] == 0.0

    def test_buy_one_share_cost_accounting(self):
        env = TradingEnv(EnvConfig(initial_capital=1000.0, cost_rate=0.001,
                                   h_max=100),
                         flat_table(), simple_features(flat_table()))
        env.reset()
        transition = env.step(np.array([0.01]))  # one share at 10
        state = transition.next_state
        assert state.balance == pytest.approx(1000.0 - 10.01, abs=1e-12)
        assert state.holdings[0] == 1.0
        assert transition.reward == pytest.approx(-0.01, abs=1e-12)
        assert transition.info["cost"] == pytest.approx(0.01, abs=1e-12)

    def test_sell_clipped_to_holdings(self):
        env = TradingEnv(EnvConfig(initial_capital=1000.0, cost_rate=0.0,
                                   h_max=100),
                         flat_table(), simple_features(flat_table()))
        env.reset()
        env.step(np.array([0.03]))  # buy 3
        transition = env.step(np.array([-0.05]))  # ask to sell 5
        assert transition.action_applied[0] == -3.0
        assert transition.next_state.holdings[0] == 0.0

    def test_buys_clipped_to_balance(self):
        env = TradingEnv(EnvConfig(initial_capital=100.0, cost_rate=0.0,
                                   h_max=100),
                         flat_table(price=30.0),
                         simple_features(flat_table(price=30.0)))
        env.reset()
        transition = env.step(np.array([1.0]))  # wants 100 shares, affords 3
        assert transition.action_applied[0] == 3.0
        assert transition.next_state.balance >= 0.0

    def test_sells_fund_buys(self):
        table = flat_table(n=2)
        env = TradingEnv(EnvConfig(initial_capital=100.0, cost_rate=0.0,
                                   h_max=100), table, simple_features(table))
        env.reset()
        env.step(np.array([0.1, 0.0]))  # 10 shares of A, zero cash
        transition = env.step(np.array([-0.1, 0.1]))
        assert transition.action_applied[0] == -10.0
        assert transition.action_applied[1] == 10.0

    def test_action_clipped_to_unit_interval(self):
        env = TradingEnv(EnvConfig(initial_capital=1e6, cost_rate=0.0,
                                   h_max=100),
                         flat_table(), simple_features(flat_table()))
        env.reset()
        transition = env.step(np.array([7.0]))
        assert transition.action_applied[0] == 100.0  # h_max, not 700

    def test_step_after_done_rejected(self):
        table = flat_table(T=4)
        env = TradingEnv(EnvConfig(), table, simple_features(table))
        env.reset()
        while not env.done:
            env.step(np.zeros(1))
        with pytest.raises(EnvError, match="finished episode"):
            env.step(np.zeros(1))

    def test_non_finite_action_rejected(self):
        env = make_trading_env(random_walk_table(20, 1))
        env.reset()
        with pytest.raises(EnvError, match="non-finite"):
            env.step(np.array([np.nan]))

    def test_short_allowed_when_flagged(self):
        table = flat_table()
        env = TradingEnv(EnvConfig(initial_capital=1000.0, allow_short=True,
                                   cost_rate=0.0, h_max=10),
                         table, simple_features(table))
        env.reset()
        transition = env.step(np.array([-0.5]))
        assert transition.next_state.holdings[0] == -5.0

    def test_margin_allowed_when_flagged(self):
        table = flat_table(price=100.0)
        env = TradingEnv(EnvConfig(initial_capital=50.0, allow_margin=True,
                                   cost_rate=0.0, h_max=10),
                         table, simple_features(table))
        env.reset()
        transition = env.step(np.array([0.2]))  # 2 shares = 200 > 50 cash
        assert transition.next_state.balance == pytest.approx(-150.0)


class TestTradingInvariants:
    def run_episode(self, env, rng, actions=None):
        state = env.reset()
        v0 = state.value
        total = 0.0
        while not env.done:
            action = rng.uniform(-1, 1, env.n) if actions is None else actions
            transition = env.step(action)
            ns = transition.next_state
            identity = ns.prices @ ns.holdings + ns.balance
            assert ns.value == pytest.approx(identity, rel=1e-12, abs=1e-9)
            total += transition.reward
        assert total == pytest.approx(env.state.value - v0, rel=1e-9,
                                      abs=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_accounting_and_telescoping(self, seed):
        rng = np.random.default_rng(seed)
        table = random_walk_table(25, 3, seed=seed)
        env = make_trading_env(table)
        self.run_episode(env, rng)

    def test_cost_free_reversibility(self):
        table = flat_table(T=8, n=2)
        env = TradingEnv(EnvConfig(initial_capital=5000.0, cost_rate=0.0,
                                   h_max=100), table, simple_features(table))
        state = env.reset()
        b0, h0 = state.balance, state.holdings.copy()
        action = np.array([0.37, 0.12])
        env.step(action)
        transition = env.step(-action)
        assert transition.next_state.balance == pytest.approx(b0, abs=1e-9)
        np.testing.assert_array_equal(transition.next_state.holdings, h0)

    @pytest.mark.parametrize("seed", range(5))
    def test_no_short_no_margin(self, seed):
        rng = np.random.default_rng(100 + seed)
        table = random_walk_table(30, 2, seed=seed)
        env = make_trading_env(table)
        env.reset()
        while not env.done:
            transition = env.step(rng.uniform(-1, 1, 2))
            assert (transition.next_state.holdings >= 0).all()
            assert transition.next_state.balance >= 0.0


class TestRiskControl:
    def make_risky_env(self):
        table = random_walk_table(20, 2, seed=9)
        features = simple_features(table)
        risk = np.zeros(20)
        risk[6] = 150.0  # above the default threshold at t=6
        config = EnvConfig(initial_capital=10_000.0, cost_rate=0.0,
                           risk_indicator="turbulence", risk_threshold=100.0)
        return TradingEnv(config, table, features, risk_series=risk)

    def test_liquidation_on_trigger(self):
        env = self.make_risky_env()
        env.reset(start=1)
        while env.state.t < 6:
            env.step(np.full(2, 0.2))  # accumulate holdings
        assert env.state.holdings.sum() > 0
        transition = env.step(np.full(2, 0.5))  # ignored: risk fires
        assert transition.info["risk_triggered"]
        assert (transition.next_state.holdings == 0).all()

    def test_requires_series(self):
        table = random_walk_table(10, 1, seed=2)
        with pytest.raises(EnvError, match="needs a risk series"):
            TradingEnv(EnvConfig(risk_indicator="vix"), table,
                       simple_features(table))

    def test_portfolio_moves_to_uniform(self):
        table = random_walk_table(20, 2, seed=9)
        risk = np.zeros(20)
        risk[5] = 1e9
        config = EnvConfig(initial_capital=1000.0,
                           risk_indicator="turbulence", risk_threshold=100.0)
        env = PortfolioEnv(config, table, simple_features(table),
                           risk_series=risk)
        env.reset(start=4, weights=np.array([0.9, 0.1]))
        env.step(np.array([5.0, -5.0]))  # t=4: no trigger
        transition = env.step(np.array([5.0, -5.0]))  # t=5 triggers
        assert transition.info["risk_triggered"]
        np.testing.assert_allclose(transition.next_state.weights, [0.5, 0.5])


class TestPortfolio:
    def test_uniform_reset(self):
        env = make_portfolio_env(random_walk_table(15, 4))
        state = env.reset()
        np.testing.assert_allclose(state.weights, np.full(4, 0.25))
        assert state.value == env.config.initial_capital

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([2.0, 2.0])), [0.5, 0.5])

    def test_single_asset_gain(self):
        close = np.array([[100.0, 50.0], [100.0, 50.0], [105.0, 50.0]])
        table = make_table(close)
        env = PortfolioEnv(EnvConfig(initial_capital=1000.0), table,
                           simple_features(table))
        env.reset()
        transition = env.step(np.array([50.0, -50.0]))  # all-in asset 0
        assert transition.next_state.value == pytest.approx(1050.0)

    def test_equal_weights_symmetric_moves_cancel(self):
        close = np.array([[100.0, 100.0], [100.0, 100.0], [110.0, 90.0]])
        table = make_table(close)
        env = PortfolioEnv(EnvConfig(initial_capital=1000.0), table,
                           simple_features(table))
        env.reset()  # starts at row 1; ratios to row 2 are 1.1 and 0.9
        transition = env.step(np.zeros(2))
        assert transition.next_state.value == pytest.approx(1000.0)

    def test_weights_always_on_simplex(self, rng):
        env = make_portfolio_env(random_walk_table(25, 5, seed=3))
        env.reset()
        while not env.done:
            transition = env.step(rng.normal(0, 3, 5))
            w = transition.next_state.weights
            assert abs(w.sum() - 1.0) < 1e-12
            assert (w >= 0).all()

    def test_value_recursion_exact(self, rng):
        table = random_walk_table(30, 3, seed=4)
        env = make_portfolio_env(table)
        state = env.reset()
        v = state.value
        while not env.done:
            prev_prices = env.state.prices
            transition = env.step(rng.normal(0, 1, 3))
            w = transition.action_applied
            v = v * float(w @ (transition.next_state.prices / prev_prices))
            assert transition.next_state.value == pytest.approx(v, rel=1e-12)

    def test_turnover_cost_deducted(self):
        table = flat_table(T=6, n=2)
        config = EnvConfig(initial_capital=1000.0, turnover_cost_rate=0.01)
        env = PortfolioEnv(config, table, simple_features(table))
        env.reset()  # weights (0.5, 0.5)
        transition = env.step(np.array([50.0, -50.0]))  # to (1, 0)
        # turnover = 0.5 * (|1-0.5| + |0-0.5|) = 0.5; fee = 1000 * 0.01 * 0.5
        assert transition.info["cost"] == pytest.approx(5.0, rel=1e-9)
        assert transition.next_state.value == pytest.approx(995.0, rel=1e-9)

    def test_non_finite_action_rejected(self):
        env = make_portfolio_env(random_walk_table(10, 2))
        env.reset()
        with pytest.raises(EnvError, match="non-finite"):
            env.step(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [1.0, -1.0], [-1.0, 0.5]])
    def test_reset_rejects_weights_without_positive_sum(self, weights):
        env = make_portfolio_env(random_walk_table(10, 2))
        with pytest.raises(EnvError, match="bad initial weights"):
            env.reset(weights=np.array(weights))


class TestBatchStep:
    def make_envs(self, k, seed=0):
        envs = []
        for i in range(k):
            table = random_walk_table(15, 2, seed=seed + i)
            envs.append(make_trading_env(table))
            envs[-1].reset()
        return envs

    def test_batch_of_one_equals_single(self):
        env_a = make_trading_env(random_walk_table(15, 2, seed=1))
        env_b = make_trading_env(random_walk_table(15, 2, seed=1))
        env_a.reset()
        env_b.reset()
        action = np.array([0.2, -0.4])
        (batch_result,) = batch_step([env_a], [action])
        single = env_b.step(action)
        assert batch_result.reward == single.reward
        np.testing.assert_array_equal(batch_result.action_applied,
                                      single.action_applied)

    def test_identical_envs_identical_transitions(self):
        envs = [make_trading_env(random_walk_table(15, 2, seed=7))
                for _ in range(4)]
        for env in envs:
            env.reset()
        actions = [np.array([0.3, 0.3])] * 4
        transitions = batch_step(envs, actions)
        rewards = {t.reward for t in transitions}
        assert len(rewards) == 1

    def test_matches_sequential_loop_bitwise(self, rng):
        k = 16
        batch_envs = self.make_envs(k, seed=40)
        loop_envs = self.make_envs(k, seed=40)
        for _ in range(6):
            actions = [rng.uniform(-1, 1, 2) for _ in range(k)]
            batch_transitions = batch_step(batch_envs, actions)
            for env, action, bt in zip(loop_envs, actions, batch_transitions):
                if env.done:
                    env.reset()
                lt = env.step(action)
                assert lt.reward == bt.reward
                assert lt.next_state.balance == bt.next_state.balance
                np.testing.assert_array_equal(lt.next_state.holdings,
                                              bt.next_state.holdings)

    def test_auto_reset_reports_info(self):
        table = flat_table(T=4)
        env = TradingEnv(EnvConfig(), table, simple_features(table))
        env.reset()
        while not env.done:
            env.step(np.zeros(1))
        (transition,) = batch_step([env], [np.zeros(1)])
        assert transition.info.get("auto_reset") is True

    def test_length_mismatch(self):
        envs = self.make_envs(2)
        with pytest.raises(EnvError, match="2 envs but 1 actions"):
            batch_step(envs, [np.zeros(2)])


class TestEpisodeReturns:
    """Lockstep population episodes against one reset/step loop per row."""

    P = 5

    def make_env(self, env_cls, allow_short=False, allow_margin=False):
        table = random_walk_table(24, 3, seed=11)
        risk = np.zeros(24)
        risk[8] = 1e9  # liquidation / uniform weights at t=8
        config = EnvConfig(initial_capital=3017.3, cost_rate=0.0023, h_max=40,
                           allow_short=allow_short, allow_margin=allow_margin,
                           risk_indicator="turbulence", reward_scale=0.01,
                           turnover_cost_rate=0.0037)
        return env_cls(config, table, simple_features(table), risk_series=risk)

    @staticmethod
    def act_row(p, obs):
        # scale 3 drives |action| past 1, so clipping and rounding happen
        return 3.0 * np.sin(1e-3 * obs.sum() + p + np.arange(3))

    def loop_return(self, env, p, seen):
        obs = env.reset().observation()
        total = 0.0
        fired = False
        while not env.done:
            seen.append(obs)
            transition = env.step(self.act_row(p, obs))
            total += transition.reward
            fired |= transition.info["risk_triggered"]
            obs = transition.next_state.observation()
        assert fired
        return total

    @pytest.mark.parametrize("env_cls,short,margin", [
        (TradingEnv, False, False), (TradingEnv, True, True),
        (PortfolioEnv, False, False)])
    def test_equals_step_loop_bitwise(self, env_cls, short, margin):
        env = self.make_env(env_cls, short, margin)
        batches = []

        def act(obs):
            batches.append(obs.copy())
            return np.array([self.act_row(p, o) for p, o in enumerate(obs)])

        returns = env.episode_returns(act, self.P)
        assert len(batches) == env.end - 1 - env.start
        for p in range(self.P):
            seen = []
            assert_bitwise_equal(returns[p], self.loop_return(env, p, seen))
            assert_bitwise_equal([b[p] for b in batches], seen)

    @pytest.mark.parametrize("env_cls", [TradingEnv, PortfolioEnv])
    def test_population_rows_run_on_their_own_ranges(self, env_cls):
        env = self.make_env(env_cls)
        envs = [env_cls(env.config, env.table, env.features,
                        risk_series=env.risk_series, start=start, end=end)
                for start, end in [(2, 12), (4, 20), (6, 10), (2, 24), (3, 15)]]
        calls = []

        def act(obs):
            calls.append(1)
            actions = np.array([self.act_row(p, o) for p, o in enumerate(obs)])
            if len(calls) == 4:
                actions[4, 0] = np.nan  # row 4 (start 3) at t=6
            return actions

        returns, finite = population_returns(envs, act)
        assert len(calls) == 21  # the steps of the longest range
        assert finite.tolist() == [True, True, True, True, False]
        for p in range(4):
            assert_bitwise_equal(returns[p], self.loop_return(envs[p], p, []))
        # row 4 keeps the rewards of its three steps before t=6
        total, obs = 0.0, envs[4].reset().observation()
        for _ in range(3):
            transition = envs[4].step(self.act_row(4, obs))
            total += transition.reward
            obs = transition.next_state.observation()
        assert_bitwise_equal(returns[4], total)

    @pytest.mark.parametrize("env_cls", [TradingEnv, PortfolioEnv])
    def test_non_finite_action_rejected(self, env_cls):
        env = self.make_env(env_cls)
        calls = []

        def act(obs):
            calls.append(1)
            actions = np.zeros((self.P, 3))
            if len(calls) == 4:
                actions[2, 1] = np.nan
            return actions

        with pytest.raises(EnvError, match="non-finite"):
            env.episode_returns(act, self.P)
        assert len(calls) == 4

    def test_action_shape_checked(self):
        env = self.make_env(PortfolioEnv)
        with pytest.raises(EnvError, match="shape"):
            env.episode_returns(lambda obs: np.zeros((self.P, 2)), self.P)


class TestEnvPopulation:
    """Auto-resetting lockstep rows against one reset/step loop per env."""

    def make_envs(self, env_cls, allow_short=False, allow_margin=False):
        table = random_walk_table(24, 3, seed=12)
        risk = np.zeros(24)
        risk[8] = 1e9  # liquidation / uniform weights at t=8
        risk[11] = np.nan
        config = EnvConfig(initial_capital=3017.3, cost_rate=0.0023, h_max=40,
                           allow_short=allow_short, allow_margin=allow_margin,
                           risk_indicator="turbulence", reward_scale=0.01,
                           turnover_cost_rate=0.0037)
        features = simple_features(table)
        # step ranges of different lengths, so rows reset at different steps
        return [env_cls(config, table, features, risk_series=risk,
                        start=start, end=end)
                for start, end in [(2, 6), (3, 12), (5, 9), (7, 20), (2, 3)]]

    @pytest.mark.parametrize("env_cls,short,margin", [
        (TradingEnv, False, False), (TradingEnv, True, True),
        (PortfolioEnv, False, False)])
    def test_equals_auto_reset_loops_bitwise(self, env_cls, short, margin):
        envs = self.make_envs(env_cls, short, margin)[:4]
        population = EnvPopulation(envs)
        act = TestEpisodeReturns.act_row
        steps = 25
        seen = []
        for _ in range(steps):
            obs = population.observations()
            actions = np.array([act(p, o) for p, o in enumerate(obs)])
            rewards, done = population.step(actions)
            seen.append((obs, rewards, done))
        for p, env in enumerate(envs):
            obs = env.reset().observation()
            for k in range(steps):
                transition = env.step(act(p, obs))
                assert_bitwise_equal(seen[k][0][p], obs)
                assert_bitwise_equal(seen[k][1][p], transition.reward)
                assert seen[k][2][p] == transition.done
                state = env.reset() if transition.done \
                    else transition.next_state
                obs = state.observation()

    def test_rejects_envs_that_share_nothing(self):
        envs = self.make_envs(TradingEnv)
        e = envs[0]
        unshared = [
            make_trading_env(random_walk_table(24, 3, seed=12)),
            PortfolioEnv(e.config, e.table, e.features, e.risk_series),
            TradingEnv(EnvConfig(risk_indicator="turbulence"), e.table,
                       e.features, e.risk_series),
            TradingEnv(e.config, e.table, e.features, e.risk_series.copy())]
        for other in unshared:
            with pytest.raises(EnvError, match="share"):
                EnvPopulation([e, other])
        with pytest.raises(EnvError, match="no step"):
            EnvPopulation([envs[1], envs[4]])


def test_episode_trace_export(tmp_path, rng):
    table = random_walk_table(10, 2, seed=5)
    env = make_trading_env(table)
    env.reset()
    transitions = []
    while not env.done:
        transitions.append(env.step(rng.uniform(-1, 1, 2)))
    path = tmp_path / "trace.csv"
    write_episode_trace(transitions, str(path), table.tickers)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,timestamp,action_T0,action_T1,holdings_T0,"
                        "holdings_T1,balance,value,reward,cost,risk_triggered")
    assert len(lines) == 1 + len(transitions)
