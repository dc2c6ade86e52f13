"""End-to-end CLI runs on the shipped synthetic dataset."""
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import quantgym
from quantgym import cli
from quantgym import sentiment as sn
from quantgym.cli import main
from quantgym.config import SCHEMA
from quantgym.market_data import ingest_csv

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("QUANTGYM_OUT", raising=False)


def run(args, tmp_path, extra=()):
    argv = list(args) + ["--set", f"run.output_dir={tmp_path}"] + list(extra)
    return main(argv)


def run_fresh(args, tmp_path):
    """Run the CLI in a fresh interpreter, where logging and numpy
    warnings reach stderr as they do for a user (pytest's log capture
    keeps them out of stderr in-process)."""
    src = os.path.dirname(os.path.dirname(quantgym.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run(
        [sys.executable, "-m", "quantgym.cli", *args, "--set",
         f"run.output_dir={tmp_path}"],
        capture_output=True, text=True, env=env, timeout=300)


def test_rolling_runs_leave_numpy_ma_unimported(tmp_path):
    """``numpy.ma`` costs about a megabyte; a2c and cem trade-sim runs on
    the shipped data do not import it (plain ``np.unique`` would)."""
    src = os.path.dirname(os.path.dirname(quantgym.__file__))
    script = (
        "import sys\n"
        "from quantgym.cli import main\n"
        "for agent in ('a2c', 'cem'):\n"
        "    assert main(['trade-sim', '--set', 'agent.type=' + agent,\n"
        "                 '--set', 'agent.steps=32', '--set',\n"
        "                 'agent.iterations=2', '--set', 'pipeline.n_trade=2',\n"
        f"                 '--set', 'run.output_dir={tmp_path}']) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


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

    def test_score_equals_score_document_per_line(self, tmp_path):
        # CRLF endings, tabs, no-break spaces, blank and punctuation-only
        # lines: each row is score_document(preprocess(line))
        texts = ["Profits surge significantly\tas EPS beats; shares rally",
                 "",
                 "\xa0Shares\xa0crash after the downgrade. Not good!",
                 "...",
                 "; ! ?",
                 "U.S. stocks rally\t\tx;y gains.!  Company does not rise",
                 "\t",
                 "Revenue never fell?\xa0Losses widen sharply (12.5%)"]
        path = tmp_path / "texts.txt"
        path.write_bytes("\r\n".join(texts + [""]).encode("utf-8"))
        assert run(["sentiment", "score"], tmp_path,
                   ["--set", f"sentiment.input={path}"]) == 0
        rows = (tmp_path / "sentiment" / "scores.csv").read_text(
            encoding="utf-8").splitlines()
        dictionary, shifters = sn.mini_financial_dictionary(), \
            sn.default_shifters()
        want = ["line,compound,polarity"]
        for i, text in enumerate(texts, start=1):
            score = sn.score_document(sn.preprocess(text), dictionary,
                                      shifters)
            want.append(f"{i},{score.compound!r},{score.polarity}")
        assert rows == want
        assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {
            "positive", "negative", "neutral"}

    @pytest.mark.parametrize("command", ["score", "eval"])
    @pytest.mark.parametrize("boost", ["1e200", "1e308", "4.5"])
    def test_boost_out_of_range_exits_3(self, tmp_path, capsys, command,
                                        boost):
        with open(sn.packaged("shifters.tsv"), encoding="utf-8") as fh:
            table = fh.read().replace("significantly\t0.293",
                                      f"significantly\t{boost}")
        shifters = tmp_path / "shifters.tsv"
        shifters.write_text(table, encoding="utf-8")
        line = table.splitlines().index(f"intensifier\tsignificantly\t{boost}")
        texts = tmp_path / "texts.txt"
        texts.write_text("Company significantly beats estimates\n")
        capsys.readouterr()
        assert run(["sentiment", command], tmp_path,
                   ["--set", f"sentiment.shifters={shifters}",
                    "--set", f"sentiment.input={texts}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {shifters}:{line + 1}: boost for "
                              f"'significantly' must be finite in "), err
        assert not (tmp_path / "sentiment" / "scores.csv").exists()

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

    def test_risk_series_undefined_over_traded_span_exits_3(self, tmp_path,
                                                             capsys):
        # the default 252-row turbulence window leaves the shipped 120 rows
        # without a single defined value: the control could never act
        for command in ("trade-sim", "backtest"):
            code = run([command], tmp_path, self.BASE + [
                "--set", "env.risk_indicator=turbulence",
                "--set", "env.risk_threshold=0"])
            err = capsys.readouterr().err
            assert code == 3, err
            assert err.startswith("data error: the turbulence risk series "
                                  "has no finite value"), err

    def test_heterogeneous_type_grid(self, tmp_path):
        # a grid axis over agent type ranks baselines against each other
        # per window by validation Sharpe
        assert run(["trade-sim"], tmp_path, self.BASE + [
            "--set", "agent.grid=type=zero,passive"]) == 0
        windows = read_json(tmp_path / "trade-sim" / "windows.json")
        assert all(len(w["grid_scores"]) == 2 for w in windows)
        assert all(w["selected"] in (0, 1) for w in windows)

    def test_mixed_kind_grid_fits_alike_batched_and_job_by_job(
            self, tmp_path, monkeypatch):
        # fit_all routes each job by kind: a2c jobs train in lockstep,
        # the passive ones are built one by one
        args = ["--set", "agent.grid=type=a2c,passive", "--set",
                "agent.steps=64", "--set", "pipeline.n_trade=3"]
        assert run(["trade-sim"], tmp_path / "batched", args) == 0
        make = cli.make_agent_factory

        def job_by_job(config):
            factory = make(config)
            return lambda env, hyper, seed: factory(env, hyper, seed)

        monkeypatch.setattr(cli, "make_agent_factory", job_by_job)
        assert run(["trade-sim"], tmp_path / "plain", args) == 0
        windows = read_json(tmp_path / "batched" / "trade-sim" /
                            "windows.json")
        assert {w["selected"] for w in windows} == {0, 1}
        for name in ("windows.json", "trades.csv", "values.csv"):
            assert ((tmp_path / "batched" / "trade-sim" / name).read_bytes()
                    == (tmp_path / "plain" / "trade-sim" / name).read_bytes())

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

    def test_report_malformed_results_exit_3(self, tmp_path, capsys):
        results = tmp_path / "results" / "a"
        results.mkdir(parents=True)
        for metrics, values in (("{", "x,y\n"), ("[1]", "x,y\n"),
                                ("{}", b"\xff\xfe")):
            (results / "metrics.json").write_text(metrics)
            mode = "wb" if isinstance(values, bytes) else "w"
            with open(results / "values.csv", mode) as fh:
                fh.write(values)
            code = main(["report", "--dir", str(tmp_path / "results"),
                         "--set", f"run.output_dir={tmp_path / 'out'}"])
            err = capsys.readouterr().err
            assert code == 3, err
            assert err.startswith(f"data error: {results}"), err
            assert len(err.splitlines()) == 1


class TestExitCodes:
    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[env]\nnot_a_key = 1\n")
        assert main(["trade-sim", "-c", str(bad)]) == 2
        # a deleted knob is an unknown key like any other
        bad.write_text("[pipeline]\nsteps_per_day = 1\n")
        assert main(["trade-sim", "-c", str(bad)]) == 2
        bad.write_text("[pipeline]\nrisk_free = 0.01\n")
        assert main(["trade-sim", "-c", str(bad)]) == 2
        for overrides in (["agent.type=equal", "agent.rebalance_every=0"],
                          ["run.seed=-1"], ["pipeline.n_train=0"]):
            argv = [x for item in overrides for x in ("--set", item)]
            assert run(["trade-sim"], tmp_path, argv) == 2, overrides

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
        not_json = tmp_path / "not_json"
        not_json.write_text("{")
        for command, key, path in (("features", "data.events_file", missing),
                                   ("backtest", "agent.policy_file", missing),
                                   ("backtest", "agent.policy_file", not_json)):
            code = run([command], tmp_path, ["--set", f"{key}={path}"])
            err = capsys.readouterr().err
            assert code == 3, (key, path, err)
            assert err.startswith(f"data error: {path}"), err
            assert len(err.splitlines()) == 1
        # non-finite numbers are bad data, named by their line
        panel = tmp_path / "nan_panel.csv"
        panel.write_text(
            "timestamp,ticker,open,high,low,close,volume\n"
            "2022-01-03T00:00:00+00:00,AAPL,1,1,1,1,10\n"
            "2022-01-04T00:00:00+00:00,AAPL,nan,nan,nan,nan,10\n")
        for command in (["ingest"], ["features"]):
            code = run(command, tmp_path, ["--set", f"data.source={panel}"])
            err = capsys.readouterr().err
            assert code == 3, (command, err)
            assert err == (f"data error: {panel}:3: non-finite price/volume "
                           f"field\n"), err
        folder = tmp_path / "nan_bars"
        folder.mkdir()
        (folder / "AAPL.csv").write_text(
            "timestamp,open,high,low,close,volume\n"
            "2022-01-03T00:00:00+00:00,1,1,1,1,10\n"
            "2022-01-04T00:00:00+00:00,1,1,1,1,inf\n")
        code = run(["ingest"], tmp_path, ["--set", f"data.source={folder}",
                                          "--set", "data.format=dir"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == (f"data error: {folder / 'AAPL.csv'}:3: non-finite "
                       f"price/volume field\n"), err
        # a valid bar whose size overflows an indicator is named by the
        # feature, ticker and time of its first non-finite value
        shipped = os.path.join(os.path.dirname(quantgym.__file__), "data",
                               "synthetic_market.csv")
        with open(shipped, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for columns, feature in (((3,), "adx_14"), ((3, 5), "cci_20")):
            fields = lines[200].split(",")
            assert fields[:2] == ["2022-03-23T00:00:00+00:00", "SYN1"]
            for c in columns:
                fields[c] = "1e308"
            huge = tmp_path / f"huge_{feature}.csv"
            huge.write_text("\n".join(lines[:200] + [",".join(fields)]
                                      + lines[201:]) + "\n")
            for command in (["features"],
                            ["trade-sim", "--set", "agent.type=passive"]):
                code = run(command, tmp_path, ["--set", f"data.source={huge}"])
                err = capsys.readouterr().err
                assert code == 3, (command, err)
                assert err == (f"data error: non-finite {feature} for (SYN1, "
                               f"2022-03-23T00:00:00+00:00) past warmup\n"), err
        for value in ("nan", "inf", "-inf"):
            events = tmp_path / f"events_{value}.csv"
            events.write_text("enter_time,ticker,value\n"
                              "2022-01-03T00:00:00+00:00,AAA,0.5\n"
                              f"2022-01-04T00:00:00+00:00,AAA,{value}\n")
            code = run(["features"], tmp_path,
                       ["--set", f"data.events_file={events}"])
            err = capsys.readouterr().err
            assert code == 3, (value, err)
            assert err.startswith(f"data error: {events}:3: non-finite"), err
            assert len(err.splitlines()) == 1

    def test_runtime_error_exits_4(self, tmp_path):
        # cem with population 1 raises TrainingError out of cmd_train
        code = run(["train"], tmp_path,
                   ["--set", "agent.type=cem", "--set", "agent.population=1"])
        assert code == 4
        assert run(["train"], tmp_path, ["--set", "agent.hidden=0"]) == 4

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

    def test_cem_iterations_below_one_exit_4(self, tmp_path, capsys):
        # a search of no generation would report its random initial policy
        # as trained
        assert run(["train"], tmp_path, ["--set", "agent.type=cem",
                                         "--set", "agent.iterations=0"]) == 4
        assert not (tmp_path / "train" / "policy.json").exists()
        assert run(["trade-sim"], tmp_path,
                   ["--set", "agent.type=cem", "--set", "agent.iterations=-3",
                    "--set", "pipeline.n_trade=2"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "runtime error: iterations must be at least 1",
            "runtime error: every window was skipped (window 0: iterations "
            "must be at least 1)"]

    # a learning rate <= 0 never learns or ascends the loss; a reward
    # scale <= 0 zeroes or flips every trainer's objective
    REFUSED = [(command, key, value)
               for command in (["train"], ["trade-sim", "--set",
                                           "pipeline.n_trade=2"])
               for key in ("agent.learning_rate", "env.reward_scale")
               for value in ("0", "-1")]

    @pytest.mark.parametrize("command,key,value", REFUSED)
    def test_non_positive_rate_or_scale_exit_4(self, tmp_path, capsys,
                                               command, key, value):
        code = run(command, tmp_path, ["--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert code == 4, err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("runtime error: ")
        assert f"{key.split('.')[1]} must be positive" in err
        written = {name for _, _, names in os.walk(tmp_path)
                   for name in names}
        assert not written & {"policy.json", "metrics.json"}, written

    @pytest.mark.parametrize("args,message", [
        (["trade-sim", "--set", "agent.type=cem", "--set",
          "agent.population=1", "--set", "pipeline.n_trade=2"],
         "runtime error: every window was skipped (window 0: population"),
        (["trade-sim", "--set", "agent.grid=learning_rate=1e9,0.003",
          "--set", "pipeline.n_trade=2"],
         "runtime error: every window was skipped (window 0: non-finite"),
        (["train", "--set", "agent.learning_rate=1e9"],
         "runtime error: non-finite action at step"),
        # a diverging CEM fit: its overflow warnings stay off stderr
        (["train", "--set", "agent.type=cem", "--set",
          "env.reward_scale=1e308"],
         "runtime error: non-finite objective value during CEM search"),
        (["trade-sim", "--set", "agent.type=cem", "--set",
          "env.reward_scale=1e308", "--set", "pipeline.n_trade=2"],
         "runtime error: every window was skipped (window 0: non-finite "
         "objective"),
    ])
    def test_failing_run_prints_one_stderr_line(self, tmp_path, args,
                                                message):
        proc = run_fresh(args, tmp_path)
        assert proc.returncode == 4
        assert proc.stderr.startswith(message), proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_clean_trade_sim_prints_nothing_to_stderr(self, tmp_path):
        proc = run_fresh(["trade-sim", "--set", "agent.type=passive",
                          "--set", "pipeline.n_trade=2"], tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""

    # key -> (command that reads it, a good row, a bad row)
    RESOURCES = {
        "financial": ("build-dict", "gain\t1.0", "slump\tbig"),
        "general": ("build-dict", "gain\t1.0", "slump\t-9"),
        "master": ("build-dict", "gain", "gain\tloss"),
        "synonyms": ("build-dict", "gain\tprofit\t0.5", "gain\tprofit"),
        "subjectivity": ("build-dict", "gain\t0.5", "gain\t1.5"),
        "overrides": ("build-dict", "gain\treject", "slump\tmaybe"),
        "resolutions": ("build-dict", "rally\t0.5", "slump -0.5"),
        "dictionary": ("eval", "gain\t1.0", "gain\tnan"),
        "shifters": ("eval", "negator\tnot", "booster\tvery\t0.3"),
        "corpus": ("eval", "70\tShares rally", "170\tShares soar"),
    }

    def test_malformed_resolutions_exits_3(self, tmp_path, capsys):
        # every sentiment resource: a missing file names its path, a bad
        # row names path:line, each in one stderr line with exit 3
        for key, (command, good, bad) in self.RESOURCES.items():
            missing = tmp_path / f"no_{key}.tsv"
            malformed = tmp_path / f"{key}.tsv"
            malformed.write_text(f"# {key}\n{good}\n{bad}\n")
            for path, where in ((missing, f"{missing}:"),
                                (malformed, f"{malformed}:3:")):
                code = run(["sentiment", command], tmp_path / "out",
                           ["--set", f"sentiment.{key}={path}"])
                err = capsys.readouterr().err
                assert code == 3, (key, path, err)
                assert err.startswith(f"data error: {where}"), (key, err)
                assert len(err.splitlines()) == 1, (key, err)
        # these three cannot be empty: there would be nothing to expand,
        # score with or evaluate on
        for key in ("master", "dictionary", "corpus"):
            empty = tmp_path / f"empty_{key}.tsv"
            empty.write_text(f"# {key}\n")
            code = run(["sentiment", self.RESOURCES[key][0]], tmp_path / "out",
                       ["--set", f"sentiment.{key}={empty}"])
            err = capsys.readouterr().err
            assert code == 3 and err.startswith(f"data error: {empty}"), err

    def test_unwritable_output_dir_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main(["sentiment", "eval", "--set",
                     f"run.output_dir={blocker / 'run'}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(blocker) in err
        assert len(err.splitlines()) == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUANTGYM_OUT", str(tmp_path / "via_env"))
        assert main(["sentiment", "eval"]) == 0
        assert (tmp_path / "via_env" / "sentiment" / "eval.json").exists()


# --set fuzzing: every command, random overrides drawn from SCHEMA, and
# missing or malformed files for every path key

FUZZ_COMMANDS = (["ingest"], ["features"], ["train"], ["backtest"],
                 ["trade-sim"], ["report"], ["sentiment", "score"],
                 ["sentiment", "build-dict"], ["sentiment", "eval"])
FUZZ_FILES = ("<missing>", "<empty>", "<garbage>", "<binary>", "<dir>")
FUZZ_CHOICES = {
    "data.source": ("synthetic",) + FUZZ_FILES,
    "data.format": ("csv", "dir", "bogus"),
    "data.frequency": ("1day", "1h", "bogus"),
    "data.calendar_rule": ("intersection", "union", "bogus"),
    "data.fill_rule": ("fill", "drop-ticker", "bogus"),
    "data.events_kind": ("sentiment", "fundamental", "bogus"),
    "features.indicators": ("macd", "rsi:7", "rsi:0", "cci:x", "adx", ",",
                            "bogus"),
    "env.kind": ("trading", "portfolio", "bogus"),
    "env.risk_indicator": ("none", "turbulence", "vix", "bogus"),
    "env.vix_ticker": ("VIX", "bogus"),
    "agent.type": ("a2c", "cem", "passive", "equal", "mean_variance", "zero",
                   "bogus"),
    "agent.grid": ("hidden=2,4", "type=zero,passive", "steps=", "bogus=1",
                   "bogus"),
    "agent.policy_file": ("<policy>",) + FUZZ_FILES,
    "sentiment.input": ("<headlines>",) + FUZZ_FILES,
    "run.output_dir": ("<garbage>", "<garbage>/run"),  # cannot be created
}
FUZZ_BY_TYPE = {
    "int": ("-1", "0", "1", "2", "3", "8", "x"),
    "float": ("-1", "0", "0.5", "1e9", "nan", "inf", "x"),
    "bool": ("true", "false", "maybe"),
    "str": ("",) + FUZZ_FILES,  # the remaining str keys all name files
}
FUZZ_KEYS = sorted(f"{section}.{key}" for section, keys in SCHEMA.items()
                   for key in keys)
# small budgets so each run takes well under a second
FUZZ_BASE = ["agent.steps=16", "agent.rollout_steps=4", "agent.hidden=4",
             "agent.population=4", "agent.iterations=2", "pipeline.n_trade=2",
             "agent.policy_file=<policy>", "sentiment.input=<headlines>"]


def fuzz_value(key):
    section, name = key.split(".")
    return st.sampled_from(FUZZ_CHOICES.get(
        key, FUZZ_BY_TYPE[SCHEMA[section][name][0]]))


@st.composite
def fuzz_overrides(draw):
    keys = draw(st.lists(st.sampled_from(FUZZ_KEYS), max_size=4, unique=True))
    return [f"{key}={draw(fuzz_value(key))}" for key in keys]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "empty").write_text("")
    (root / "garbage").write_text("x\ty\tz\n{\"format\": 1}\n,,,\n")
    (root / "binary").write_bytes(b"\xff\xfe\x00bad")
    (root / "dir").mkdir()
    (root / "headlines").write_text("Shares rally\nProfit warning\n")
    assert main(["train", "--set", f"run.output_dir={root}",
                 "--set", "agent.steps=16"]) == 0
    (root / "train" / "policy.json").rename(root / "policy")
    return {f"<{name}>": str(root / name)
            for name in ("missing", "empty", "garbage", "binary", "dir",
                         "headlines", "policy")}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(FUZZ_COMMANDS), overrides=fuzz_overrides())
# a non-finite learning rate once trained to an Infinity-filled policy.json
# (train) and printed a RuntimeWarning before its error line (trade-sim)
@example(command=["train"],
         overrides=["agent.learning_rate=inf", "agent.steps=1"])
@example(command=["trade-sim"],
         overrides=["agent.learning_rate=inf", "agent.steps=1"])
def test_fuzzed_overrides_exit_with_a_documented_code(
        command, overrides, fuzz_files, tmp_path_factory, capsys):
    out = tmp_path_factory.mktemp("run")
    argv = list(command) + ["--set", f"run.output_dir={out}"]
    for item in FUZZ_BASE + overrides:
        for name, path in fuzz_files.items():
            item = item.replace(name, path)
        argv += ["--set", item]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), argv
    if code:
        assert len(err.splitlines()) == 1, (argv, err)


# file-content fuzzing: rows and fields of the market csv (both formats),
# the events csv and the headlines are edited, and every command that
# reads the file runs on it

CONTENT_TEXTS = ("", "nan", "1e308", "1e-320", "-1", "x",
                 "2022-02-30T00:00:00+00:00", "2022-01-03T00:00:00",
                 "9999-12-31T23:59:59+00:00", "0001-01-01T00:00:00+01:00")
CONTENT_READERS = {"csv": (["ingest"], ["features"]),
                   "dir": (["ingest"], ["features"]),
                   "events": (["features"],),
                   "headlines": (["sentiment", "score"],)}


@st.composite
def content_edits(draw, texts=CONTENT_TEXTS):
    """(kind, line, ...) edits; lines and fields are taken modulo the
    file's counts, so line 0 is the header."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("field", "cut", "duplicate")))
        line = draw(st.integers(0, 400))
        if kind == "field":
            edits.append((kind, line, draw(st.integers(0, 7)),
                          draw(st.sampled_from(texts))))
        elif kind == "cut":
            edits.append((kind, line, draw(st.integers(0, 60))))
        else:
            edits.append((kind, line))
    return edits


def edited(text, edits, sep):
    lines = text.split("\n")
    for kind, line, *args in edits:
        k = line % len(lines)
        if kind == "field":
            fields = lines[k].split(sep)
            fields[args[0] % len(fields)] = args[1]
            lines[k] = sep.join(fields)
        elif kind == "cut":
            lines[k] = lines[k][:args[0]]
        else:
            lines.insert(k, lines[k])
    return "\n".join(lines)


@pytest.fixture(scope="module")
def content_files(tmp_path_factory):
    """Texts of the base files: the shipped csv, its per-ticker split,
    events on its tickers and dates, and headlines."""
    with open(cli._data_source(cli.load_config(None, [])),
              encoding="utf-8") as fh:
        market = fh.read()
    per_ticker = {}
    for line in market.splitlines()[1:]:
        ts, ticker, rest = line.split(",", 2)
        per_ticker.setdefault(ticker, ["timestamp,open,high,low,close,volume"]
                              ).append(f"{ts},{rest}")
    events = "\n".join(["enter_time,ticker,value"] + [
        f"2022-0{1 + k % 4}-{10 + k}T1{k % 10}:30:00+00:00,SYN{k % 3},"
        f"{(k - 6) / 4}" for k in range(14)]) + "\n"
    root = tmp_path_factory.mktemp("content")
    (root / "events.csv").write_text(events)
    return {"csv": market,
            "dir": {tk: "\n".join(rows) + "\n"
                    for tk, rows in per_ticker.items()},
            "events": events,
            "headlines": "Shares rally on record profit\nProfit warning "
                         "hits the stock\nNo gains for investors. Losses "
                         "widen\n",
            "events_path": str(root / "events.csv")}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(sorted(CONTENT_READERS)), edits=content_edits(),
       member=st.sampled_from(("SYN0", "SYN1", "SYN2")),
       kind=st.sampled_from(("sentiment", "fundamental")))
# an instant that leaves years 1-9999 once shifted to UTC, or once lagged
# to its fundamental effective date, raised OverflowError
@example(target="csv", edits=[("field", 1, 0, "0001-01-01T00:00:00+01:00")],
         member="SYN0", kind="sentiment")
@example(target="events",
         edits=[("field", 1, 0, "0001-01-01T00:00:00+01:00")],
         member="SYN0", kind="sentiment")
@example(target="events",
         edits=[("field", 1, 0, "9999-12-31T23:59:59+00:00")],
         member="SYN0", kind="fundamental")
def test_fuzzed_file_contents_exit_with_a_documented_code(
        target, edits, member, kind, content_files, tmp_path_factory,
        capsys):
    root = tmp_path_factory.mktemp("edited")
    overrides = [f"run.output_dir={root / 'run'}", f"data.events_kind={kind}",
                 "features.turbulence_window=20",
                 f"data.events_file={content_files['events_path']}"]
    if target == "dir":
        (root / "dir").mkdir()
        for ticker, text in content_files["dir"].items():
            if ticker == member:
                text = edited(text, edits, ",")
            (root / "dir" / f"{ticker}.csv").write_text(text)
        overrides += [f"data.source={root / 'dir'}", "data.format=dir"]
    else:
        path = root / target
        path.write_text(edited(content_files[target], edits,
                               " " if target == "headlines" else ","))
        key = {"csv": "data.source", "events": "data.events_file",
               "headlines": "sentiment.input"}[target]
        overrides.append(f"{key}={path}")
    for command in CONTENT_READERS[target]:
        argv = list(command)
        for item in overrides:
            argv += ["--set", item]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert len(err.splitlines()) == (1 if code else 0), (argv, err)


# shifter-table fuzzing: rows and fields of the shipped shifters.tsv are
# edited, and both commands that read it run on it

SHIFTER_TEXTS = ("", "x", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320",
                 "0", "-0.0", "-1", "-0.5", "2", "negator", "intensifier",
                 "negation_factor", "booster", "#", "not", "very", "rally",
                 "profit", "significantly", "fall")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=content_edits(SHIFTER_TEXTS))
@example(edits=[("field", 9, 2, "x")])  # a boost that is not a number
@example(edits=[("field", 1, 1, "0")])  # a negation factor out of range
# a boost so large that the compound's square overflows
@example(edits=[("field", 15, 2, "1e308"), ("field", 15, 1, "significantly"),
                ("duplicate", 15)])
def test_fuzzed_shifters_exit_with_a_documented_code(
        edits, content_files, tmp_path_factory, capsys):
    root = tmp_path_factory.mktemp("shifters")
    path = root / "shifters.tsv"
    with open(sn.packaged("shifters.tsv"), encoding="utf-8") as fh:
        path.write_text(edited(fh.read(), edits, "\t"), encoding="utf-8")
    headlines = root / "headlines.txt"
    headlines.write_text(content_files["headlines"])
    for command in (["sentiment", "score"], ["sentiment", "eval"]):
        argv = command + ["--set", f"run.output_dir={root / 'run'}",
                          "--set", f"sentiment.shifters={path}",
                          "--set", f"sentiment.input={headlines}"]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert len(err.splitlines()) == (1 if code else 0), (argv, err)
        if code == 3:  # a bad row is named by path:line
            assert re.match(rf"data error: {re.escape(str(path))}:\d+: ",
                            err), err


# policy-file fuzzing: keys and entries of a trained policy.json are
# replaced, and backtest runs the file

POLICY_VALUES = (0.0, -1.0, 1e-320, 1e308, -1e308, float("nan"), float("inf"),
                 10**400, 3, "1", "x", None, True, [])
POLICY_KEYS = ("format", "name", "obs_scale", "parameters", "hyperparameters",
               "obs_dim", "action_dim", "hidden", "seed")


@st.composite
def policy_edits(draw):
    """(kind, key, ...) edits: "key" replaces a top-level or
    hyperparameter key, "all" every entry of a list, "entry" one entry."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("key", "all", "entry")))
        value = draw(st.sampled_from(POLICY_VALUES))
        if kind == "key":
            edits.append((kind, draw(st.sampled_from(POLICY_KEYS)), value))
        else:
            edits.append((kind, draw(st.sampled_from(("obs_scale",
                                                      "parameters"))),
                          draw(st.integers(0, 400)), value))
    return edits


def edited_policy(blob, edits):
    blob = json.loads(json.dumps(blob))
    for kind, key, *args in edits:
        owner = blob if key in blob else blob["hyperparameters"]
        if not isinstance(owner, dict):  # hyperparameters was replaced
            continue
        if kind == "key":
            owner[key] = args[0]
        elif not isinstance(owner.get(key), list) or not owner[key]:
            continue
        elif kind == "all":
            owner[key] = [args[1]] * len(owner[key])
        else:
            owner[key][args[0] % len(owner[key])] = args[1]
    return json.dumps(blob)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=policy_edits())
# a zero obs_scale and a finite policy that overflows each printed numpy
# RuntimeWarnings before `runtime error: non-finite action`; obs_scale
# entries written as strings were read as numbers and exited 0
@example(edits=[("all", "obs_scale", 0, 0.0)])
@example(edits=[("all", "parameters", 0, 1e308)])
@example(edits=[("all", "obs_scale", 0, "1")])
def test_fuzzed_policy_file_exits_with_a_documented_code(
        edits, fuzz_files, tmp_path_factory, capsys):
    code, err, _ = backtest_edited_policy(edits, fuzz_files,
                                          tmp_path_factory, capsys)
    assert code in (0, 2, 3, 4)
    assert len(err.splitlines()) == (1 if code else 0), (edits, err)


def backtest_edited_policy(edits, fuzz_files, tmp_path_factory, capsys):
    """(exit code, stderr, path) of backtest on the edited policy file."""
    with open(fuzz_files["<policy>"], encoding="utf-8") as fh:
        blob = json.load(fh)
    root = tmp_path_factory.mktemp("policy")
    path = root / "policy.json"
    path.write_text(edited_policy(blob, edits))
    capsys.readouterr()
    code = main(["backtest", "--set", "agent.type=a2c",
                 "--set", f"agent.policy_file={path}",
                 "--set", f"run.output_dir={root / 'run'}"])
    return code, capsys.readouterr().err, str(path)


@pytest.mark.parametrize("edits,message", [
    ([("all", "obs_scale", 0, 0.0)], "obs_scale must be positive"),
    ([("entry", "obs_scale", 1, float("inf"))], "obs_scale must be finite"),
    ([("all", "obs_scale", 0, "1")], "obs_scale must be a list of numbers"),
    ([("entry", "parameters", 7, float("nan"))], "parameters must be finite"),
    ([("entry", "parameters", 7, True)], "parameters must be a list of "),
    ([("entry", "parameters", 7, 10**400)], "OverflowError")])
def test_policy_numbers_are_checked_on_load(edits, message, fuzz_files,
                                            tmp_path_factory, capsys):
    code, err, path = backtest_edited_policy(edits, fuzz_files,
                                             tmp_path_factory, capsys)
    assert code == 3
    assert err.startswith(f"data error: {path}: not a policy file")
    assert message in err and len(err.splitlines()) == 1


def test_overflowing_policy_ends_in_one_line(fuzz_files, tmp_path_factory,
                                             capsys):
    code, err, _ = backtest_edited_policy([("all", "parameters", 0, 1e308)],
                                          fuzz_files, tmp_path_factory, capsys)
    assert (code, err) == (4, "runtime error: non-finite action\n")
