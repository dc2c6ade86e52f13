"""End-to-end CLI runs on the shipped synthetic dataset."""
import json
import os

import numpy as np
import pytest

from quantgym.cli import main
from quantgym.market_data import ingest_csv

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("QUANTGYM_OUT", raising=False)


def run(args, tmp_path, extra=()):
    argv = list(args) + ["--set", f"run.output_dir={tmp_path}"] + list(extra)
    return main(argv)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestIngestFeatures:
    def test_ingest_writes_cleaned_csv_and_manifest(self, tmp_path):
        assert run(["ingest"], tmp_path) == 0
        out = tmp_path / "ingest"
        table = ingest_csv(str(out / "cleaned.csv"), "1day")
        assert table.n_tickers == 3
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "ingest"
        assert manifest["inputs"]  # digest of the shipped csv

    def test_features_artifact(self, tmp_path):
        assert run(["features"], tmp_path,
                   ["--set", "features.turbulence_window=20"]) == 0
        blob = np.load(tmp_path / "features" / "features.npz")
        assert blob["values"].ndim == 3
        assert list(blob["feature_names"]) == [
            "macd_12_26_9", "rsi_14", "cci_20", "adx_14"]
        with open(tmp_path / "features" / "turbulence.csv") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        values = np.array([float(value) for _, value in rows])
        assert len(values) == blob["values"].shape[0]
        warmup = 21  # window 20 plus the first return row
        assert np.isnan(values[:warmup]).all()
        assert np.isfinite(values[warmup:]).all()

    def test_non_integer_indicator_period_exits_2(self, tmp_path, capsys):
        code = run(["features"], tmp_path,
                   ["--set", "features.indicators=rsi:abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'rsi:abc'" in err
        assert len(err.splitlines()) == 1

    def test_event_feature_column(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("enter_time,ticker,value\n"
                          "2022-03-01T00:00:00+00:00,SYN0,0.8\n")
        assert run(["features"], tmp_path, [
            "--set", f"data.events_file={events}",
            "--set", "data.events_kind=sentiment",
            "--set", "features.indicators=sma:5"]) == 0
        blob = np.load(tmp_path / "features" / "features.npz")
        assert list(blob["feature_names"]) == ["sma_5", "sentiment"]
        sent = blob["values"][:, 0, 1]
        assert sent.sum() == pytest.approx(0.8)  # one event, one bar

    def test_bad_events_header_exits_3(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("when,tic,val\n")
        code = run(["features"], tmp_path,
                   ["--set", f"data.events_file={events}"])
        assert code == 3


class TestSentimentCommands:
    def test_score(self, tmp_path):
        texts = tmp_path / "texts.txt"
        texts.write_text("Profits surge significantly\n"
                         "Shares crash after downgrade\n")
        assert run(["sentiment", "score"], tmp_path,
                   ["--set", f"sentiment.input={texts}"]) == 0
        lines = (tmp_path / "sentiment" / "scores.csv").read_text().splitlines()
        assert lines[0] == "line,compound,polarity"
        assert lines[1].endswith("positive")
        assert lines[2].endswith("negative")

    def test_build_dict_cascade(self, tmp_path):
        assert run(["sentiment", "build-dict"], tmp_path) == 0
        out = tmp_path / "sentiment"
        rows = {}
        for line in (out / "dictionary.tsv").read_text().splitlines():
            lemma, valence, provenance = line.split("\t")
            rows[lemma] = (float(valence), provenance)
        # resolution fixed the contradiction, expansion added synonyms
        assert rows["bull"] == (1.8, "override")
        assert rows["bullish"] == (1.8, "expanded")
        assert rows["turmoil"] == (-2.0, "override")
        assert "overvalue" not in rows  # rejected
        assert "liquidate" not in rows  # subjectivity below 0.2
        pending = (out / "pending.tsv").read_text()
        assert "stabilize" in pending and "frail" in pending
        assert (out / "contradictions.txt").read_text().strip() == ""

    def test_eval_matches_fixture(self, tmp_path):
        assert run(["sentiment", "eval"], tmp_path) == 0
        payload = read_json(tmp_path / "sentiment" / "eval.json")
        assert payload["polarity_accuracy"] == 0.75
        assert 0.9 < payload["valence_correlation"] < 1.0


class TestTradeSim:
    BASE = ["--set", "agent.type=passive",
            "--set", "env.initial_capital=100000",
            "--set", "env.cost_rate=0",
            "--set", "env.h_max=5000"]

    def test_passive_matches_buy_and_hold_oracle(self, tmp_path):
        assert run(["trade-sim"], tmp_path, self.BASE) == 0
        payload = read_json(tmp_path / "trade-sim" / "metrics.json")

        # oracle: buy integer shares per equal budget at the first trade
        # day's close, hold to settlement
        from quantgym.cli import build_rolling_data
        from quantgym.config import load_config
        config = load_config(None, self.BASE[1::2])
        data = build_rolling_data(config)
        days = data.usable_days().tolist()
        plan_start = 20 + 5  # n_train + n_test
        firsts = data.day_first_steps(days)
        start = int(firsts[plan_start])
        end = min(int(firsts[plan_start + 5]), data.table.n_steps - 1)
        prices0 = data.table.close[start]
        shares = np.floor((100000.0 / 3) / prices0)
        residual = 100000.0 - shares @ prices0
        v_end = data.table.close[end] @ shares + residual
        expected = (v_end - 100000.0) / 100000.0
        assert payload["cumulative_return"] == pytest.approx(expected,
                                                             rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        run(["trade-sim"], tmp_path / "a", self.BASE)
        run(["trade-sim"], tmp_path / "b", self.BASE)
        a = (tmp_path / "a" / "trade-sim" / "metrics.json").read_bytes()
        b = (tmp_path / "b" / "trade-sim" / "metrics.json").read_bytes()
        assert a == b
        va = (tmp_path / "a" / "trade-sim" / "values.csv").read_bytes()
        vb = (tmp_path / "b" / "trade-sim" / "values.csv").read_bytes()
        assert va == vb

    def test_windows_report_written(self, tmp_path):
        assert run(["trade-sim"], tmp_path, self.BASE) == 0
        windows = read_json(tmp_path / "trade-sim" / "windows.json")
        assert len(windows) == 5
        assert all(not w["skipped"] for w in windows)

    def test_turbulence_risk_indicator_wiring(self, tmp_path):
        assert run(["trade-sim"], tmp_path, self.BASE + [
            "--set", "env.risk_indicator=turbulence",
            "--set", "features.turbulence_window=10",
            "--set", "env.risk_threshold=1e9"]) == 0
        # astronomically high threshold: behaves exactly like no risk control
        payload = read_json(tmp_path / "trade-sim" / "metrics.json")
        plain = tmp_path / "plain"
        run(["trade-sim"], plain, self.BASE)
        assert payload == read_json(plain / "trade-sim" / "metrics.json")

    def test_heterogeneous_type_grid(self, tmp_path):
        # a grid axis over agent type ranks baselines against each other
        # per window by validation Sharpe
        assert run(["trade-sim"], tmp_path, self.BASE + [
            "--set", "agent.grid=type=zero,passive"]) == 0
        windows = read_json(tmp_path / "trade-sim" / "windows.json")
        assert all(len(w["grid_scores"]) == 2 for w in windows)
        assert all(w["selected"] in (0, 1) for w in windows)

    def test_vix_risk_ticker_split_from_universe(self, tmp_path):
        assert run(["trade-sim"], tmp_path, self.BASE + [
            "--set", "env.risk_indicator=vix",
            "--set", "env.vix_ticker=SYN2",
            "--set", "env.risk_threshold=1e9"]) == 0
        trades = (tmp_path / "trade-sim" / "trades.csv").read_text()
        header = trades.splitlines()[0]
        assert "SYN2" not in header  # risk ticker is not tradable
        assert "action_SYN0" in header and "action_SYN1" in header


class TestTrainBacktest:
    def test_train_then_backtest(self, tmp_path):
        extra = ["--set", "agent.steps=64", "--set", "agent.hidden=8"]
        assert run(["train"], tmp_path, extra) == 0
        policy_file = tmp_path / "train" / "policy.json"
        assert policy_file.exists()
        assert run(["backtest"], tmp_path, extra + [
            "--set", f"agent.policy_file={policy_file}"]) == 0
        assert (tmp_path / "backtest" / "metrics.json").exists()

    def test_train_rejects_untrainable_agent(self, tmp_path):
        code = run(["train"], tmp_path, ["--set", "agent.type=passive"])
        assert code == 2

    def test_backtest_baseline_directly(self, tmp_path):
        assert run(["backtest"], tmp_path,
                   ["--set", "agent.type=equal"]) == 0


class TestReport:
    def test_report_aggregates_metrics(self, tmp_path, capsys):
        run(["trade-sim"], tmp_path, TestTradeSim.BASE)
        assert run(["report"], tmp_path) == 0
        report = read_json(tmp_path / "report" / "report.json")
        assert "trade-sim" in report
        assert "cumulative_return" in report["trade-sim"]
        assert (tmp_path / "report" / "plot.csv").read_text().startswith("x,y")

    def test_report_empty_dir_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = main(["report", "--dir", str(empty),
                     "--set", f"run.output_dir={tmp_path / 'out'}"])
        assert code == 3
        assert "no results found" in capsys.readouterr().err


class TestExitCodes:
    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[env]\nnot_a_key = 1\n")
        assert main(["trade-sim", "-c", str(bad)]) == 2
        # a deleted knob is an unknown key like any other
        bad.write_text("[pipeline]\nsteps_per_day = 1\n")
        assert main(["trade-sim", "-c", str(bad)]) == 2

    def test_missing_data_exits_3(self, tmp_path, capsys):
        code = run(["ingest"], tmp_path,
                   ["--set", "data.source=/nowhere/x.csv"])
        assert code == 3
        missing = tmp_path / "no_such_headlines.txt"
        code = run(["sentiment", "score"], tmp_path,
                   ["--set", f"sentiment.input={missing}"])
        assert code == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2  # one line per failed command
        assert errors[1].startswith("data error:") and str(missing) in errors[1]

    def test_runtime_error_exits_4(self, tmp_path):
        # cem with population 1 raises TrainingError out of cmd_train
        code = run(["train"], tmp_path,
                   ["--set", "agent.type=cem", "--set", "agent.population=1"])
        assert code == 4

    def test_rolling_run_with_every_window_skipped_exits_4(self, tmp_path,
                                                           capsys):
        # trade-sim absorbs the same failure per window; a run in which
        # every window was skipped traded nothing and is an error
        code = run(["trade-sim"], tmp_path,
                   ["--set", "agent.type=cem", "--set", "agent.population=1",
                    "--set", "pipeline.n_trade=2"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("runtime error: every window was skipped")
        assert "population must be at least 2" in err
        assert len(err.splitlines()) == 1

    def test_malformed_resolutions_exits_3(self, tmp_path, capsys):
        resolutions = tmp_path / "resolutions.tsv"
        resolutions.write_text("# lemma\tvalence\nrally\t0.5\nslump -0.5\n")
        code = run(["sentiment", "build-dict"], tmp_path,
                   ["--set", f"sentiment.resolutions={resolutions}"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{resolutions}:3" in err
        assert len(err.splitlines()) == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUANTGYM_OUT", str(tmp_path / "via_env"))
        assert main(["sentiment", "eval"]) == 0
        assert (tmp_path / "via_env" / "sentiment" / "eval.json").exists()
