"""Window planning, metrics oracle, backtests, and the rolling driver."""
import math

import numpy as np
import pytest

from quantgym import cli
from quantgym.agents import (
    WeightRebalancePolicy,
    ZeroPolicy,
    baseline_passive,
    cem,
)
from quantgym.cli import build_rolling_data, main, make_agent_factory
from quantgym.config import load_config
from quantgym.envs import EnvConfig, TradingEnv, softmax
from quantgym.errors import DataError, TrainingError
from quantgym.pipeline import (
    RollingData,
    _distinct,
    backtest,
    max_drawdown,
    metrics,
    plan_windows,
    run_rolling,
    write_backtest_result,
)

from conftest import (
    assert_bitwise_equal,
    make_calendar,
    make_table,
    make_trading_env,
    random_walk_table,
    reference_step,
    simple_features,
)


# --- independent metrics oracle ---------------------------------------------

def oracle_metrics(values, basis=365, t=None):
    values = list(map(float, values))
    t = t if t is not None else len(values) - 1
    v0, vT = values[0], values[-1]
    cumulative = (vT - v0) / v0
    annualized = (1 + cumulative) ** (basis / t) - 1
    rets = [values[i] / values[i - 1] - 1 for i in range(1, len(values))]
    mean = sum(rets) / len(rets)
    var = sum((r - mean) ** 2 for r in rets) / len(rets)
    std = math.sqrt(var)
    sharpe = None if std == 0 else mean / std
    peak, worst = values[0], 0.0
    for v in values:
        peak = max(peak, v)
        worst = max(worst, (peak - v) / peak)
    return cumulative, annualized, sharpe, worst


class TestMetrics:
    def test_cumulative_return_definition(self):
        m = metrics([100.0, 104.0, 110.0])
        assert m.cumulative_return == pytest.approx(0.10, abs=1e-12)

    def test_annualized_exponent_one(self):
        m = metrics(np.linspace(100, 110, 366), trading_days=365)
        assert m.annualized_return == pytest.approx(0.10, rel=1e-10)

    def test_max_drawdown_running_peak(self):
        m = metrics([100.0, 120.0, 90.0, 100.0])
        assert m.max_drawdown == pytest.approx(0.25, abs=1e-12)

    def test_flat_series_sharpe_undefined(self):
        m = metrics([100.0, 100.0, 100.0])
        assert m.sharpe is None
        assert m.sharpe_annualized is None
        assert m.max_drawdown == 0.0

    def test_roundoff_spread_is_flat(self):
        """Step returns of +-one ulp have a std near 2e-16, no risk: the
        Sharpe ratio is undefined as for an exactly flat series."""
        values = np.array([1e6, 1e6 * (1 + 2 ** -52)] * 2)
        assert 0.0 < (values[1:] / values[:-1] - 1.0).std() <= 1e-12
        m = metrics(values)
        assert m.sharpe is None
        assert m.sharpe_annualized is None

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 40)))
        m = metrics(values)
        cum, ann, sharpe, dd = oracle_metrics(values)
        assert m.cumulative_return == pytest.approx(cum, abs=1e-10)
        assert m.annualized_return == pytest.approx(ann, abs=1e-10)
        assert m.sharpe == pytest.approx(sharpe, abs=1e-10)
        assert m.max_drawdown == pytest.approx(dd, abs=1e-10)

    def test_scale_invariance(self, rng):
        values = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 30)))
        base = metrics(values)
        for _ in range(20):
            c = float(rng.uniform(0.01, 100.0))
            scaled = metrics(c * values)
            assert scaled.cumulative_return == pytest.approx(
                base.cumulative_return, rel=1e-10)
            assert scaled.sharpe == pytest.approx(base.sharpe, rel=1e-10)
            assert scaled.max_drawdown == pytest.approx(
                base.max_drawdown, rel=1e-10, abs=1e-12)

    def test_telescoping_consistency(self, rng):
        values = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 25)))
        rets = values[1:] / values[:-1] - 1
        product = np.prod(1 + rets) - 1
        m = metrics(values)
        assert m.cumulative_return == pytest.approx(product, rel=1e-10)

    def test_drawdown_bounds(self, rng):
        for _ in range(20):
            values = np.exp(np.cumsum(rng.normal(0, 0.05, 50)))
            dd = max_drawdown(values)
            assert 0.0 <= dd < 1.0
        assert max_drawdown(np.linspace(1, 2, 30)) == 0.0

    def test_annual_volatility_needs_two_years(self):
        stamps = make_calendar(40)
        m = metrics(np.linspace(100, 105, 40), timestamps=stamps)
        assert m.annualized_volatility is None
        assert m.step_volatility_annualized >= 0

    def test_annual_volatility_across_years(self):
        stamps = (np.datetime64("2021-06-01T00:00:00", "s")
                  + np.arange(500) * np.timedelta64(86400, "s"))
        values = 100 * np.exp(np.linspace(0, 0.2, 500))
        m = metrics(values, timestamps=stamps)
        assert m.annualized_volatility is not None
        assert m.annualized_volatility >= 0

    def test_non_positive_values_rejected(self):
        with pytest.raises(DataError, match="positive"):
            metrics([100.0, -5.0, 100.0])

    def test_overflowing_annualized_return_is_none(self):
        m = metrics([1.0, 1e200])
        assert m.annualized_return is None
        assert m.cumulative_return == 1e200 - 1.0

    def test_overflowing_yearly_return_gives_no_annual_volatility(self):
        # two days in each of two years: the first year's growth of 1e10
        # annualizes to 1e1825, which overflows; no RuntimeWarning escapes
        stamps = np.array(["2021-12-30", "2021-12-31", "2022-01-01",
                           "2022-01-02"], dtype="datetime64[s]")
        m = metrics([1.0, 1e10, 1e10, 1e10], timestamps=stamps,
                    trading_days=365)
        assert m.annualized_volatility is None
        assert m.annualized_return == pytest.approx(1e10 - 1.0)

    def test_basis_252_supported(self):
        m = metrics([100.0, 110.0], trading_days=252,
                    annualization_basis=252)
        assert m.annualized_return == pytest.approx(0.10, rel=1e-12)


class TestPlanWindows:
    def test_example_plan(self):
        plan = plan_windows(list(range(10)), 5, 2, 3)
        assert [w.trade_day for w in plan.windows] == [7, 8, 9]
        first = plan.windows[0]
        assert (first.train_start, first.train_stop) == (0, 5)
        assert (first.train_stop, first.test_stop) == (5, 7)

    def test_windows_shift_by_one_day(self):
        plan = plan_windows(list(range(15)), 6, 3, 4)
        for prev, cur in zip(plan.windows, plan.windows[1:]):
            assert cur.trade_day == prev.trade_day + 1
            assert cur.train_start == prev.train_start + 1

    def test_train_ends_the_day_before_test(self):
        plan = plan_windows(list(range(12)), 5, 2, 2)
        for w in plan.windows:
            assert w.train_stop == w.trade_day - 2
            assert w.test_stop == w.trade_day

    def test_single_window(self):
        plan = plan_windows(list(range(7)), 4, 2, 1)
        assert len(plan.windows) == 1

    def test_insufficient_calendar(self):
        with pytest.raises(DataError, match="need at least"):
            plan_windows(list(range(9)), 5, 2, 3)


class TestBacktest:
    def test_zero_action_policy_flat_value(self):
        env = make_trading_env(random_walk_table(20, 2, seed=1))
        result = backtest(ZeroPolicy(2), env)
        assert (result.values == env.config.initial_capital).all()
        assert result.metrics.cumulative_return == 0.0
        assert result.metrics.sharpe is None

    def test_passive_reproduces_buy_and_hold(self):
        table = random_walk_table(25, 2, seed=2)
        config = EnvConfig(initial_capital=20_000.0, cost_rate=0.0,
                           h_max=2000)
        env = TradingEnv(config, table, simple_features(table))
        result = backtest(baseline_passive(env), env)
        state = env.reset()
        shares = np.floor((20_000.0 / 2) / state.prices)
        residual = 20_000.0 - shares @ state.prices
        expected = table.close[env.start:] @ shares + residual
        np.testing.assert_allclose(result.values, expected, rtol=1e-12)

    def test_deterministic_across_repeats(self):
        table = random_walk_table(20, 2, seed=3)
        results = []
        for _ in range(3):
            env = make_trading_env(table)
            results.append(backtest(baseline_passive(env), env))
        for r in results[1:]:
            np.testing.assert_array_equal(r.values, results[0].values)

    def test_dim_mismatch_rejected(self):
        from quantgym.agents import GaussianPolicy
        env = make_trading_env(random_walk_table(15, 2, seed=4))
        bad = GaussianPolicy(obs_dim=3, action_dim=2, hidden=4)
        with pytest.raises(TrainingError, match="obs dim"):
            backtest(bad, env)

    def test_trade_log_rows_cover_steps(self):
        env = make_trading_env(random_walk_table(15, 2, seed=5))
        result = backtest(ZeroPolicy(2), env)
        assert len(result.trade_log) == result.values.size - 1


def passive_factory(env, hyper, seed):
    return baseline_passive(env)


class TestRunRolling:
    def data(self, T=40, n=2, seed=6, **config_kwargs):
        table = random_walk_table(T, n, seed=seed)
        config = EnvConfig(initial_capital=50_000.0, cost_rate=0.0,
                           h_max=5000, **config_kwargs)
        return RollingData(table, simple_features(table), config)

    def plan_for(self, data, n_train=5, n_test=2, n_trade=4):
        return plan_windows(data.usable_days().tolist(), n_train, n_test,
                            n_trade)

    def test_passive_rolling_equals_direct_backtest(self):
        data = self.data()
        plan = self.plan_for(data, 5, 2, 6)
        log, rolling = run_rolling(data, plan, passive_factory)
        # direct: one continuous passive episode over the trade span
        firsts = data.day_first_steps(plan.days)
        start = int(firsts[plan.windows[0].trade_day])
        last = plan.windows[-1].trade_day
        end = int(firsts[last + 1]) + 1 if last + 1 < len(firsts) \
            else data.table.n_steps
        env = data.make_env(start, end)
        direct = backtest(baseline_passive(env), env)
        np.testing.assert_allclose(rolling.values, direct.values, rtol=1e-9)
        assert rolling.metrics.cumulative_return == pytest.approx(
            direct.metrics.cumulative_return, rel=1e-9)

    def test_capital_continuity_across_windows(self):
        data = self.data(seed=7)
        plan = self.plan_for(data, 5, 2, 5)
        log, result = run_rolling(data, plan, passive_factory)
        # every logged row marks its pre-step value; continuity means row i
        # sees exactly the settlement value of row i-1, across window
        # boundaries included
        for i, row in enumerate(log.rows):
            assert row.value == result.values[i]
        assert len(log) == result.values.size - 1
        window_ids = [row.window_id for row in log.rows]
        assert window_ids == sorted(window_ids)
        assert set(window_ids) == set(range(plan.n_trade))

    def test_single_grid_point_trivial_selection(self):
        data = self.data(seed=8)
        plan = self.plan_for(data, 4, 1, 2)
        _, result = run_rolling(data, plan, passive_factory, [{}])
        assert all(r.selected == 0 for r in result.window_reports)

    def test_grid_selection_prefers_better_sharpe(self):
        data = self.data(seed=9)
        plan = self.plan_for(data, 6, 3, 2)

        def factory(env, hyper, seed):
            if hyper.get("style") == "passive":
                return baseline_passive(env)
            return ZeroPolicy(env.n)

        grid = [{"style": "zero"}, {"style": "passive"}]
        _, result = run_rolling(data, plan, factory, grid)
        for report in result.window_reports:
            assert report.selected in (0, 1)
            assert len(report.grid_scores) == 2

    def test_training_failure_skips_window_flat(self):
        data = self.data(seed=10)
        plan = self.plan_for(data, 5, 2, 3)
        calls = {"n": 0}

        def flaky(env, hyper, seed):
            calls["n"] += 1
            if calls["n"] == 2:  # fail the second window's retrain
                raise TrainingError("synthetic failure")
            return baseline_passive(env)

        log, result = run_rolling(data, plan, flaky)
        skipped = [r for r in result.window_reports if r.skipped]
        assert len(skipped) == 1
        assert "synthetic failure" in skipped[0].reason
        # the skipped window still logs its day with a hold action
        skipped_rows = [r for r in log if r.window_id == skipped[0].window_id]
        assert all((row.executed == 0).all() for row in skipped_rows)

    def test_skipped_portfolio_window_holds_its_weights(self):
        table = random_walk_table(40, 3, seed=13)
        config = EnvConfig(initial_capital=50_000.0, turnover_cost_rate=0.002)
        data = RollingData(table, simple_features(table), config, "portfolio")
        plan = self.plan_for(data, 5, 2, 5)
        tilt = WeightRebalancePolicy(np.array([0.6, 0.3, 0.1]))
        calls = []

        def flaky(env, hyper, seed):
            calls.append(seed)
            if len(calls) in (2, 4):  # fail the retrains of windows 1 and 3
                raise TrainingError("synthetic failure")
            return tilt

        log, result = run_rolling(data, plan, flaky)
        assert [r.skipped for r in result.window_reports] == [
            False, True, False, True, False]
        assert len(log) == result.values.size - 1 == plan.n_trade
        assert_bitwise_equal(result.values[0], config.initial_capital)
        # replay each day on the scalar step from the carried position; a
        # skipped day's logits are the log of the weights it holds
        value, weights = config.initial_capital, None
        for i, row in enumerate(log):
            t = int(np.searchsorted(table.calendar, row.timestamp))
            env = data.make_env(t, t + 2)
            held = env.reset(value=value, weights=weights).weights
            if row.window_id in (1, 3):
                logits = np.log(np.maximum(held, 1e-12))
                assert_bitwise_equal(row.action, logits)
                assert_bitwise_equal(row.executed, softmax(logits))
            transition = reference_step(env, row.action)
            assert_bitwise_equal(row.executed, transition.action_applied)
            assert_bitwise_equal(row.value, value)
            value = transition.next_state.value
            weights = transition.next_state.weights
            assert_bitwise_equal(result.values[i + 1], value)

    def test_failed_candidate_skips_window_with_scores_so_far(self):
        data = self.data(seed=12)
        plan = self.plan_for(data, 5, 4, 2)
        calls = []

        def factory(env, hyper, seed):
            calls.append(hyper["style"])
            if hyper["style"] == "fail":
                raise TrainingError("synthetic failure")
            return (baseline_passive(env) if hyper["style"] == "passive"
                    else ZeroPolicy(env.n))

        grid = [{"style": "zero"}, {"style": "passive"}, {"style": "fail"}]
        _, result = run_rolling(data, plan, factory, grid)
        for report in result.window_reports:
            assert report.skipped and report.reason == "synthetic failure"
            # flat zero policy, then a defined Sharpe, then nothing
            assert report.grid_scores[0] == (0, 0.0)
            assert report.grid_scores[1][0] == 1
            assert report.grid_scores[2] == (0, 0.0)
            assert report.selected == 0
        # a skipped window fits no retrain
        assert calls == ["zero", "passive", "fail"] * 2

    def test_causality_under_future_perturbation(self):
        base = random_walk_table(40, 2, seed=11)
        config = EnvConfig(initial_capital=50_000.0, cost_rate=0.0,
                           h_max=5000)

        def run(table):
            data = RollingData(table, simple_features(table), config)
            plan = plan_windows(data.usable_days().tolist(), 5, 2, 6)
            return run_rolling(data, plan, passive_factory)

        log_a, result_a = run(base)
        # perturb all bars strictly after trade day d
        d_index = 3  # change data after the 4th trade day
        plan_days = plan_windows(
            RollingData(base, simple_features(base), config)
            .usable_days().tolist(), 5, 2, 6).days
        cut_day = plan_days[5 + 2 + d_index]
        dates = base.calendar.astype("datetime64[D]")
        bump = np.ones((40, 2))
        bump[dates > cut_day] = 1.37
        perturbed = make_table(np.asarray(base.close) * bump)
        log_b, result_b = run(perturbed)

        stamps_a = np.array([r.timestamp for r in log_a])
        keep = stamps_a.astype("datetime64[D]") <= cut_day
        for i in np.flatnonzero(keep):
            ra, rb = log_a.rows[i], log_b.rows[i]
            assert ra.value == rb.value
            np.testing.assert_array_equal(ra.executed, rb.executed)


class TestPhasedRolling:
    """Fitting through the CLI factory's ``fit_all`` and fitting job by
    job replay each window's outcomes alike, failures included."""

    def setup_run(self):
        config = load_config(None, [
            "agent.steps=48", "agent.grid=learning_rate=0.01,0.003",
            "pipeline.n_trade=4", "env.kind=portfolio",
            "env.turnover_cost_rate=0.002"])
        data = build_rolling_data(config)
        plan = plan_windows(data.usable_days().tolist(),
                            config.get("pipeline", "n_train"),
                            config.get("pipeline", "n_test"),
                            config.get("pipeline", "n_trade"))
        return config, data, plan

    @staticmethod
    def factories(config, fail):
        """A plain factory and one with ``fit_all``; both raise
        TrainingError for the jobs ``fail(env, hyper)`` picks."""
        factory = make_agent_factory(config)

        def plain(env, hyper, seed):
            if fail(env, hyper):
                raise TrainingError("synthetic failure")
            return factory(env, hyper, seed)

        def batched(env, hyper, seed):
            return plain(env, hyper, seed)

        def fit_all(jobs):
            return [TrainingError("synthetic failure") if fail(env, hyper)
                    else outcome for (env, hyper, _), outcome
                    in zip(jobs, factory.fit_all(jobs))]

        batched.fit_all = fit_all
        return plain, batched

    def run_both(self, tmp_path, fail_window, fail_slot):
        """Reports of both runs, failing one job: grid point `fail_slot`
        of window `fail_window`, or its retrain when `fail_slot` is
        None."""
        config, data, plan = self.setup_run()
        grid = config.hyper_grid()
        steps = data.day_first_steps(plan.days)
        w = plan.windows[fail_window]
        stop = w.train_stop if fail_slot is not None else w.test_stop

        def fail(env, hyper):
            return ((env.start, env.end) == (steps[w.train_start], steps[stop])
                    and (fail_slot is None or hyper == grid[fail_slot]))

        runs = []
        for name, factory in zip(("plain", "batched"),
                                 self.factories(config, fail)):
            _, result = run_rolling(data, plan, factory, grid, seed=7)
            write_backtest_result(result, str(tmp_path / name),
                                  data.table.tickers)
            runs.append(result.window_reports)
        assert runs[0] == runs[1]
        for name in ("trades.csv", "values.csv", "metrics.json"):
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "batched" / name).read_bytes())
        return runs[0]

    def test_failing_second_candidate_skips_its_window(self, tmp_path):
        reports = self.run_both(tmp_path, 1, 1)
        assert [r.skipped for r in reports] == [False, True, False, False]
        assert reports[1].reason == "synthetic failure"
        assert reports[1].selected == 0
        # the first candidate's score is kept, the failed one's is not
        assert reports[1].grid_scores[0] != (0, 0.0)
        assert reports[1].grid_scores[1] == (0, 0.0)

    def test_failing_retrain_skips_its_window(self, tmp_path):
        reports = self.run_both(tmp_path, 2, None)
        assert [r.skipped for r in reports] == [False, False, True, False]
        assert reports[2].reason == "synthetic failure"
        assert all(score != (0, 0.0) for score in reports[2].grid_scores)

    @pytest.mark.parametrize("kind", ["trading", "portfolio"])
    def test_cem_grid_fits_alike_batched_and_job_by_job(self, tmp_path,
                                                        monkeypatch, kind):
        monkeypatch.delenv("QUANTGYM_OUT", raising=False)
        args = ["trade-sim", "--set", "agent.type=cem", "--set",
                "agent.grid=hidden=4,6;population=4,6", "--set",
                "agent.iterations=3", "--set", "pipeline.n_trade=3", "--set",
                f"env.kind={kind}", "--set", "env.turnover_cost_rate=0.002"]
        chunks = []  # jobs per lockstep chunk
        train_chunk = cem._train_chunk

        def counted(jobs):
            chunks.append(len(jobs))
            return train_chunk(jobs)

        monkeypatch.setattr(cem, "_train_chunk", counted)
        assert main(args + ["--set", f"run.output_dir={tmp_path / 'a'}"]) == 0
        # a population value's jobs of three windows, both hidden values
        assert max(chunks) == 6
        make_factory = cli.make_agent_factory

        def job_by_job(config):  # a plain callable, without fit_all
            factory = make_factory(config)
            return lambda env, hyper, seed: factory(env, hyper, seed)

        monkeypatch.setattr(cli, "make_agent_factory", job_by_job)
        chunks.clear()
        assert main(args + ["--set", f"run.output_dir={tmp_path / 'b'}"]) == 0
        assert set(chunks) == {1}
        for name in ("windows.json", "trades.csv", "values.csv"):
            assert ((tmp_path / "a" / "trade-sim" / name).read_bytes()
                    == (tmp_path / "b" / "trade-sim" / name).read_bytes())


def test_write_backtest_result(tmp_path):
    env = make_trading_env(random_walk_table(15, 2, seed=12))
    result = backtest(baseline_passive(env), env)
    write_backtest_result(result, str(tmp_path), env.table.tickers)
    assert (tmp_path / "metrics.json").exists()
    values_lines = (tmp_path / "values.csv").read_text().splitlines()
    assert values_lines[0] == "timestamp,value"
    assert len(values_lines) == 1 + result.values.size
    trades_lines = (tmp_path / "trades.csv").read_text().splitlines()
    assert trades_lines[0].startswith("timestamp,window_id,action_")


@pytest.mark.parametrize("values", [
    np.random.default_rng(1).normal(0.0, 1.0, 50),
    np.random.default_rng(2).integers(-5, 6, 200),
    np.random.default_rng(3).integers(1990, 2030, (7, 9)),
    np.array([3.0, np.nan, 1.0, np.inf, np.nan, -np.inf, 1.0, 3.0]),
    np.array([]),
    np.array([], dtype="datetime64[D]"),
    np.array(["2023-05-01", "NaT", "2021-01-01", "2023-05-01", "NaT"],
             dtype="datetime64[D]"),
    (np.datetime64("2022-01-03T00:00:00", "s") + np.random.default_rng(4)
     .integers(0, 10, 40) * np.timedelta64(86400, "s")),
])
def test_distinct_equals_np_unique(values):
    got, want = _distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
