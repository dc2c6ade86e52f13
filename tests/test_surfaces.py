"""Coverage for secondary surfaces: loaders, parsers, helper accessors."""
import numpy as np
import pytest

from quantgym.agents import WeightRebalancePolicy
from quantgym.cli import parse_indicators, split_risk_ticker
from quantgym.envs import EnvConfig
from quantgym.errors import DataError, FeatureError
from quantgym.features import EventSeries, load_events_csv
from quantgym.market_data import BarTable
from quantgym.pipeline import backtest, metrics
from quantgym.sentiment import ShifterTable, default_shifters

from conftest import make_table, random_walk_table, simple_features


class TestEventsLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("enter_time,ticker,value\n"
                        "2022-01-05T00:00:00+00:00,AAPL,0.25\n"
                        "2022-01-06T12:30:00+00:00,MSFT,-0.5\n")
        events = load_events_csv(str(path), "sentiment")
        assert len(events.events) == 2
        assert events.events[0][1] == "AAPL"
        assert events.events[1][2] == -0.5

    def test_bad_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,tic,v\n")
        with pytest.raises(FeatureError, match="bad events header"):
            load_events_csv(str(path), "sentiment")

    def test_bad_row_reports_location(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("enter_time,ticker,value\nnot-a-time,AAPL,1\n")
        with pytest.raises(FeatureError, match=":2:"):
            load_events_csv(str(path), "sentiment")

    def test_rows_are_what_the_series_would_normalize(self, tmp_path):
        """The loader's series skips the normalization of EventSeries, so
        its rows must equal, in value and type, what that makes of them."""
        rows = [("2022-01-05T12:00:00+02:00", "AAPL", "0.25"),
                ("2022-01-05T12:00:00+02:00", "MSFT", "-0.0"),
                ("2022-02-01T00:00:00-05:00", "AAPL", "3")]
        path = tmp_path / "events.csv"
        path.write_text("enter_time,ticker,value\n"
                        + "".join(",".join(row) + "\n" for row in rows))
        for kind in ("sentiment", "fundamental"):
            loaded = load_events_csv(str(path), kind)
            built = EventSeries(tuple((text, tk, float(v))
                                      for text, tk, v in rows), kind)
            assert loaded == built
            for got, want in zip(loaded.events, built.events):
                assert list(map(type, got)) == list(map(type, want))
                assert got[0].dtype == want[0].dtype
                assert np.float64(got[2]).tobytes() == \
                    np.float64(want[2]).tobytes()

    def test_unknown_kind_fails_as_the_series_does(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("enter_time,ticker,value\n"
                        "2022-01-05T00:00:00+00:00,AAPL,0.25\n")
        with pytest.raises(FeatureError) as loaded:
            load_events_csv(str(path), "news")
        with pytest.raises(FeatureError) as built:
            EventSeries((), "news")
        assert str(loaded.value) == str(built.value) == \
            "unknown event kind 'news'"


class TestRiskTickerSplit:
    def test_split(self):
        table = random_walk_table(20, 3, seed=4)
        sub, series = split_risk_ticker(table, "T1")
        assert sub.tickers == ("T0", "T2")
        np.testing.assert_array_equal(series, table.close[:, 1])
        assert sub.n_steps == table.n_steps

    def test_single_ticker_rejected(self):
        table = random_walk_table(10, 1)
        with pytest.raises(DataError, match="only ticker"):
            split_risk_ticker(table, "T0")


class TestIndicatorSpecParsing:
    def test_parse_with_params(self):
        specs = parse_indicators("macd,rsi:7,sma:15")
        assert [s.name for s in specs] == ["macd_12_26_9", "rsi_7", "sma_15"]

    def test_empty_rejected(self):
        from quantgym.errors import ConfigError
        with pytest.raises(ConfigError, match="no indicators"):
            parse_indicators(" , ")


def test_shifter_table_save_load(tmp_path):
    table = ShifterTable({"very": 0.3, "barely": -0.2},
                         frozenset({"not", "no"}), -0.4)
    path = tmp_path / "shifters.tsv"
    table.save(str(path))
    again = ShifterTable.load(str(path))
    assert again.intensifiers == table.intensifiers
    assert again.negators == table.negators
    assert again.negation_factor == table.negation_factor


def test_shifter_factor_validated():
    with pytest.raises(ValueError, match="negation_factor"):
        ShifterTable({}, frozenset(), 0.5)


def test_default_shifters_well_formed():
    shifters = default_shifters()
    assert "not" in shifters.negators
    assert shifters.intensifiers["significantly"] == 0.293
    assert -1.0 < shifters.negation_factor < 0.0


def test_weight_rebalance_policy_tracks_targets():
    close = np.tile(np.array([10.0, 20.0]), (12, 1))
    table = make_table(close, high=close.copy(), low=close.copy())
    from quantgym.envs import TradingEnv
    env = TradingEnv(EnvConfig(initial_capital=1000.0, cost_rate=0.0,
                               h_max=100), table, simple_features(table))
    policy = WeightRebalancePolicy(np.array([0.8, 0.2]), "trading",
                                   rebalance_every=1, h_max=100)
    policy.begin_episode()
    state = env.reset()
    transition = env.step(policy.act(state.observation()))
    # 80% of 1000 at price 10 -> 80 shares; 20% at 20 -> 10 shares
    np.testing.assert_array_equal(transition.next_state.holdings, [80.0, 10.0])


class TestMetricsParameters:
    def test_trading_days_override(self):
        m = metrics([100.0, 121.0], trading_days=365,
                    annualization_basis=365)
        assert m.annualized_return == pytest.approx(0.21, rel=1e-12)

    def test_steps_per_year_override(self):
        m = metrics([100.0, 101.0, 102.0], steps_per_year=252.0)
        assert m.sharpe_annualized == pytest.approx(
            m.sharpe * np.sqrt(252.0), rel=1e-12)

    def test_risk_free_subtracted(self):
        values = [100.0, 101.0, 101.5, 103.0]
        rets = np.diff(values) / np.asarray(values[:-1])
        m = metrics(values, risk_free=0.001)
        expected = (rets.mean() - 0.001) / rets.std()
        assert m.sharpe == pytest.approx(expected, rel=1e-12)


class TestBarTableValidation:
    def test_shape_mismatch(self):
        cal = np.array(["2022-01-03T00:00:00"], dtype="datetime64[s]")
        good = np.ones((1, 1))
        bad = np.ones((2, 1))
        with pytest.raises(DataError, match="shape"):
            BarTable("1day", ("A",), cal, good, good, good, bad, good,
                     good.astype(bool), np.zeros((1, 1), bool))

    def test_duplicate_tickers(self):
        cal = np.array(["2022-01-03T00:00:00"], dtype="datetime64[s]")
        ones = np.ones((1, 2))
        with pytest.raises(DataError, match="duplicate tickers"):
            BarTable("1day", ("A", "A"), cal, ones, ones, ones, ones, ones,
                     ones.astype(bool), np.zeros((1, 2), bool))

    def test_unknown_frequency(self):
        cal = np.array(["2022-01-03T00:00:00"], dtype="datetime64[s]")
        ones = np.ones((1, 1))
        with pytest.raises(DataError, match="unknown frequency"):
            BarTable("2week", ("A",), cal, ones, ones, ones, ones, ones,
                     ones.astype(bool), np.zeros((1, 1), bool))

    def test_slice_steps(self):
        table = random_walk_table(10, 2)
        sub = table.slice_steps(2, 7)
        assert sub.n_steps == 5
        np.testing.assert_array_equal(sub.calendar, table.calendar[2:7])


def test_backtest_zero_step_episode():
    """A one-row environment yields a single value and no metrics."""
    table = random_walk_table(10, 1, seed=8)
    from quantgym.envs import TradingEnv
    env = TradingEnv(EnvConfig(), table, simple_features(table),
                     start=9, end=10)
    from quantgym.agents import ZeroPolicy
    result = backtest(ZeroPolicy(1), env)
    assert result.values.size == 1
    assert result.metrics is None
    assert len(result.trade_log) == 0
