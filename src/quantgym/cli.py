"""Command-line entry point wiring data, features, agents, and reports.

Commands: ingest, features, sentiment score|build-dict|eval, train,
backtest, trade-sim, report. Every command reads one config file (all
keys overridable via --set section.key=value), writes its artifacts
under the run output directory, and drops a manifest.json capturing the
config hash, seed, and input digests so the run can be reproduced.

Exit codes: 0 success, 2 invalid config, 3 data error, 4 runtime or
training error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__
from .agents import (
    TrainConfig,
    WeightRebalancePolicy,
    baseline_equal,
    baseline_passive,
    baseline_zero,
    estimate_moments,
    load_policy,
    mean_variance_weights,
    save_policy,
    train_a2c,
    train_a2c_all,
    train_cem,
    train_cem_all,
)
from .config import RunConfig, load_config
from .envs import EnvConfig
from .errors import ConfigError, DataError, QuantGymError, TrainingError, \
    reading
from .features import (
    FeatureMatrix,
    IndicatorSpec,
    align_events,
    compute_feature_matrix,
    load_events_csv,
    turbulence,
)
from .market_data import (
    BarTable,
    CleaningPolicy,
    clean,
    format_timestamp,
    ingest_csv,
    ingest_dir,
    write_csv,
)
from .pipeline import RollingData, backtest, plan_windows, run_rolling, \
    write_backtest_result
from . import sentiment as sn

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# shared plumbing


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(outdir: str, command: str, config: RunConfig,
                   inputs: list[str]) -> str:
    manifest = {
        "command": command,
        "config_hash": config.digest(),
        "config": config.sections,
        "seed": config.get("run", "seed"),
        "inputs": {path: _sha256(path) for path in inputs if os.path.isfile(path)},
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = os.path.join(outdir, "manifest.json")
    os.makedirs(outdir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
    return path


def _data_source(config: RunConfig) -> str:
    source = config.get("data", "source")
    if source == "synthetic":
        return str(resources.files("quantgym").joinpath(
            "data/synthetic_market.csv"))
    return source


def load_table(config: RunConfig) -> BarTable:
    """Ingest and clean the configured market data."""
    source = _data_source(config)
    frequency = config.get("data", "frequency")
    fmt = config.get("data", "format")
    if fmt == "csv":
        raw = ingest_csv(source, frequency)
    elif fmt == "dir":
        raw = ingest_dir(source, frequency)
    else:
        raise ConfigError(f"unknown data format {fmt!r}")
    policy = CleaningPolicy(
        calendar_rule=config.get("data", "calendar_rule"),
        fill_rule=config.get("data", "fill_rule"),
        min_coverage=config.get("data", "min_coverage"))
    return clean(raw, policy)


def parse_indicators(spec_text: str) -> list[IndicatorSpec]:
    """"macd,rsi:7" -> [IndicatorSpec("MACD"), IndicatorSpec("RSI", (7,))]."""
    specs = []
    for chunk in spec_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, *periods = chunk.split(":")
        try:
            params = tuple(int(p) for p in periods)
        except ValueError:
            raise ConfigError(f"features.indicators: {chunk!r} has a "
                              f"non-integer period") from None
        specs.append(IndicatorSpec(kind, params))
    if not specs:
        raise ConfigError("features.indicators selects no indicators")
    return specs


def build_features(config: RunConfig, table: BarTable) -> FeatureMatrix:
    specs = parse_indicators(config.get("features", "indicators"))
    extra = {}
    events_file = config.get("data", "events_file")
    if events_file:
        kind = config.get("data", "events_kind")
        events = load_events_csv(events_file, kind)
        extra[kind] = align_events(table, events)
    return compute_feature_matrix(table, specs, extra)


def split_risk_ticker(table: BarTable, ticker: str) -> tuple[BarTable, np.ndarray]:
    """Pull one ticker's close out as a risk series; trade the rest."""
    j = table.ticker_index(ticker)
    keep = [k for k in range(table.n_tickers) if k != j]
    if not keep:
        raise DataError("risk ticker is the only ticker in the table")
    series = table.close[:, j].astype(float)
    cols = np.array(keep)
    sub = BarTable(
        table.frequency, tuple(table.tickers[k] for k in keep),
        table.calendar.copy(),
        table.open[:, cols].copy(), table.high[:, cols].copy(),
        table.low[:, cols].copy(), table.close[:, cols].copy(),
        table.volume[:, cols].copy(), table.present[:, cols].copy(),
        table.synthetic[:, cols].copy())
    return sub, series


def build_rolling_data(config: RunConfig) -> RollingData:
    table = load_table(config)
    risk_series = None
    indicator = config.get("env", "risk_indicator")
    if indicator == "vix":
        table, risk_series = split_risk_ticker(
            table, config.get("env", "vix_ticker"))
    features = build_features(config, table)
    if indicator == "turbulence":
        risk_series = turbulence(
            table, config.get("features", "turbulence_window")).values
    env_config = EnvConfig(
        initial_capital=config.get("env", "initial_capital"),
        cost_rate=config.get("env", "cost_rate"),
        h_max=config.get("env", "h_max"),
        allow_short=config.get("env", "allow_short"),
        allow_margin=config.get("env", "allow_margin"),
        risk_indicator=indicator,
        risk_threshold=config.get("env", "risk_threshold"),
        reward_scale=config.get("env", "reward_scale"),
        turnover_cost_rate=config.get("env", "turnover_cost_rate"))
    return RollingData(table, features, env_config,
                       env_kind=config.get("env", "kind"),
                       risk_series=risk_series)


def train_config_from(config: RunConfig, hyper: dict, seed: int) -> TrainConfig:
    agent = config["agent"]
    values = {
        "steps": agent["steps"],
        "learning_rate": agent["learning_rate"],
        "gamma": agent["gamma"],
        "rollout_steps": agent["rollout_steps"],
        "hidden": agent["hidden"],
        "entropy_coef": agent["entropy_coef"],
        "population": agent["population"],
        "elite_frac": agent["elite_frac"],
        "iterations": agent["iterations"],
        "seed": seed,
    }
    for key, value in hyper.items():
        if key == "type":
            continue
        if key not in values:
            raise ConfigError(f"grid key {key!r} is not a training field")
        values[key] = value
    return TrainConfig(**values)


# trainable agent kind -> trainer of a list of (env, TrainConfig) jobs
TRAINERS = {"a2c": train_a2c_all, "cem": train_cem_all}


def make_agent_factory(config: RunConfig):
    """(env, hyper, seed) -> trained/constructed Policy.

    The kind comes from [agent] type, overridable per grid point with a
    ``type=...`` grid axis so a window can rank heterogeneous candidates
    (trainable agents against baselines) by validation Sharpe. The
    factory's ``fit_all(jobs)`` fits a list of (env, hyper, seed) jobs,
    one policy or one raised error per job, training the jobs of each
    trainable kind together with its ``TRAINERS`` entry; ``run_rolling``
    calls it.
    """
    default_kind = config.get("agent", "type")

    def rebalance_every() -> int:
        every = config.get("agent", "rebalance_every")
        if every < 1:
            raise ConfigError(f"agent.rebalance_every must be >= 1, got {every}")
        return every

    def factory(env, hyper, seed):
        kind = hyper.get("type", default_kind)
        # one job of the kind's TRAINERS entry; the benchmark's
        # agents.train hook wraps cli.train_a2c and cli.train_cem
        if kind == "a2c":
            return train_a2c(env, train_config_from(config, hyper, seed))
        if kind == "cem":
            return train_cem(env, train_config_from(config, hyper, seed))
        if kind == "passive":
            return baseline_passive(env)
        if kind == "equal":
            return baseline_equal(env, rebalance_every())
        if kind == "zero":
            return baseline_zero(env)
        if kind == "mean_variance":
            mu, sigma = estimate_moments(env.table.close[env.start:env.end])
            weights = mean_variance_weights(
                mu, sigma, config.get("agent", "risk_aversion"))
            return WeightRebalancePolicy(
                weights,
                kind="trading" if config.get("env", "kind") == "trading"
                else "portfolio",
                rebalance_every=rebalance_every(),
                h_max=config.get("env", "h_max"))
        raise ConfigError(f"unknown agent type {kind!r}")

    def fit_all(jobs):
        outcomes = [None] * len(jobs)
        batches = {kind: [] for kind in TRAINERS}
        for k, (env, hyper, seed) in enumerate(jobs):
            kind = hyper.get("type", default_kind)
            try:
                if kind in TRAINERS:
                    batches[kind].append(
                        (k, env, train_config_from(config, hyper, seed)))
                else:
                    outcomes[k] = factory(env, hyper, seed)
            except QuantGymError as exc:
                outcomes[k] = exc
        for kind, batch in batches.items():
            fitted = TRAINERS[kind]([(env, cfg) for _, env, cfg in batch])
            for (k, _, _), outcome in zip(batch, fitted):
                outcomes[k] = outcome
        return outcomes

    factory.fit_all = fit_all
    return factory


def _sentiment_path(config: RunConfig, key: str, fallback: str) -> str:
    return config.get("sentiment", key) or sn.packaged(fallback)


def _load_dictionary(config: RunConfig) -> sn.SentimentDictionary:
    path = _sentiment_path(config, "dictionary", "dict_financial_mini.tsv")
    dictionary = sn.SentimentDictionary.load(path)
    if len(dictionary) == 0:
        raise DataError(f"{path}: no dictionary entries")
    return dictionary


def _load_shifters(config: RunConfig) -> sn.ShifterTable:
    return sn.ShifterTable.load(
        _sentiment_path(config, "shifters", "shifters.tsv"))


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(config: RunConfig) -> int:
    outdir = os.path.join(config.get("run", "output_dir"), "ingest")
    table = load_table(config)
    os.makedirs(outdir, exist_ok=True)
    out_csv = os.path.join(outdir, "cleaned.csv")
    write_csv(table, out_csv)
    dropped = table.meta.get("dropped_tickers", ())
    summary = {
        "tickers": list(table.tickers),
        "steps": table.n_steps,
        "frequency": table.frequency,
        "dropped_tickers": list(dropped),
        "filled_cells": table.meta.get("filled_cells", 0),
    }
    with open(os.path.join(outdir, "ingest.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(outdir, "ingest", config, [_data_source(config)])
    print(f"ingested {table.n_tickers} tickers x {table.n_steps} steps "
          f"-> {out_csv}")
    if dropped:
        print(f"dropped tickers: {', '.join(dropped)}")
    return 0


def cmd_features(config: RunConfig) -> int:
    outdir = os.path.join(config.get("run", "output_dir"), "features")
    table = load_table(config)
    features = build_features(config, table)
    turb = turbulence(table, config.get("features", "turbulence_window")) \
        if table.n_steps > config.get("features", "turbulence_window") + 1 \
        else None
    os.makedirs(outdir, exist_ok=True)
    out_npz = os.path.join(outdir, "features.npz")
    np.savez(out_npz,
             values=features.values,
             calendar=features.calendar.astype("datetime64[s]").astype(np.int64),
             tickers=np.array(features.tickers),
             feature_names=np.array(features.feature_names),
             warmup=features.warmup)
    if turb is not None:
        with open(os.path.join(outdir, "turbulence.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("timestamp,value\n")
            for ts, v in zip(turb.calendar, turb.values):
                fh.write(f"{format_timestamp(ts)},{float(v)!r}\n")
    write_manifest(outdir, "features", config, [_data_source(config)])
    print(f"features {features.feature_names} warmup={features.warmup} "
          f"-> {out_npz}")
    return 0


def cmd_sentiment_score(config: RunConfig) -> int:
    input_path = config.get("sentiment", "input")
    if not input_path:
        raise ConfigError("sentiment.input must point at a text file "
                          "(one document per line)")
    with reading(input_path) as src:
        lines = src.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last document
    outdir = os.path.join(config.get("run", "output_dir"), "sentiment")
    scorer = sn.TextScorer(_load_dictionary(config), _load_shifters(config))
    os.makedirs(outdir, exist_ok=True)
    out_csv = os.path.join(outdir, "scores.csv")
    with open(out_csv, "w", encoding="utf-8") as dst:
        dst.write("line,compound,polarity\n")
        for i, text in enumerate(lines, start=1):
            score = scorer.score(text)
            dst.write(f"{i},{score.compound!r},{score.polarity}\n")
    write_manifest(outdir, "sentiment score", config, [input_path])
    print(f"scores -> {out_csv}")
    return 0


def cmd_sentiment_build_dict(config: RunConfig) -> int:
    outdir = os.path.join(config.get("run", "output_dir"), "sentiment")
    financial = sn.SentimentDictionary.load(
        _sentiment_path(config, "financial", "dict_financial_mini.tsv"))
    general = sn.SentimentDictionary.load(
        _sentiment_path(config, "general", "dict_general_mini.tsv"))
    resolutions = sn.load_resolutions(
        _sentiment_path(config, "resolutions", "resolutions_mini.tsv"))
    merged, contradictions = sn.merge_dictionaries(financial, general,
                                                   resolutions)
    master = sn.load_word_list(
        _sentiment_path(config, "master", "master_lexicon_mini.txt"))
    graph = sn.load_synonym_graph(
        _sentiment_path(config, "synonyms", "synonyms_mini.tsv"))
    subjectivity = sn.load_subjectivity(
        _sentiment_path(config, "subjectivity", "subjectivity_mini.tsv"))
    candidates = sn.expand_dictionary(merged, master, graph, subjectivity)
    overrides = sn.load_overrides(
        _sentiment_path(config, "overrides", "overrides_mini.tsv"))
    additions, pending = sn.apply_overrides(candidates, overrides)
    final = sn.combine(merged, additions)
    os.makedirs(outdir, exist_ok=True)
    out_dict = os.path.join(outdir, "dictionary.tsv")
    final.save(out_dict)
    with open(os.path.join(outdir, "contradictions.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(contradictions) + ("\n" if contradictions else ""))
    with open(os.path.join(outdir, "pending.tsv"), "w", encoding="utf-8") as fh:
        for cand in pending:
            fh.write(f"{cand.word}\t{cand.synonym}\t{cand.valence!r}"
                     f"\t{cand.path_similarity!r}\n")
    write_manifest(outdir, "sentiment build-dict", config, [])
    print(f"dictionary with {len(final)} entries -> {out_dict} "
          f"({len(contradictions)} contradictions, {len(pending)} pending)")
    return 0


def cmd_sentiment_eval(config: RunConfig) -> int:
    outdir = os.path.join(config.get("run", "output_dir"), "sentiment")
    corpus = sn.LabeledCorpus.load(
        _sentiment_path(config, "corpus", "corpus_mini.tsv"))
    result = sn.evaluate(corpus, _load_dictionary(config),
                         _load_shifters(config))
    os.makedirs(outdir, exist_ok=True)
    out_json = os.path.join(outdir, "eval.json")
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump({"polarity_accuracy": result.polarity_accuracy,
                   "valence_correlation": result.valence_correlation},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(outdir, "sentiment eval", config, [])
    print(f"accuracy={result.polarity_accuracy} "
          f"correlation={result.valence_correlation} -> {out_json}")
    return 0


def cmd_train(config: RunConfig) -> int:
    kind = config.get("agent", "type")
    if kind not in ("a2c", "cem"):
        raise ConfigError(f"agent type {kind!r} has no trainable parameters")
    outdir = os.path.join(config.get("run", "output_dir"), "train")
    data = build_rolling_data(config)
    days = data.usable_days()
    n = config.get("pipeline", "n_train") + config.get("pipeline", "n_test")
    if len(days) < n + 1:
        raise DataError(f"need at least {n + 1} usable days, have {len(days)}")
    firsts = data.day_first_steps(days[:n + 1])
    env = data.make_env(int(firsts[0]), int(firsts[-1]))
    factory = make_agent_factory(config)
    policy = factory(env, {}, config.get("run", "seed"))
    os.makedirs(outdir, exist_ok=True)
    out_policy = os.path.join(outdir, "policy.json")
    save_policy(policy, out_policy)
    write_manifest(outdir, "train", config, [_data_source(config)])
    print(f"trained {kind} policy -> {out_policy}")
    return 0


def _evaluation_policy(config: RunConfig, env):
    policy_file = config.get("agent", "policy_file")
    if policy_file:
        return load_policy(policy_file)
    factory = make_agent_factory(config)
    kind = config.get("agent", "type")
    if kind in ("a2c", "cem"):
        raise ConfigError(
            "backtest with a trainable agent needs agent.policy_file "
            "(run the train command first)")
    return factory(env, {}, config.get("run", "seed"))


def cmd_backtest(config: RunConfig) -> int:
    outdir = os.path.join(config.get("run", "output_dir"), "backtest")
    data = build_rolling_data(config)
    days = data.usable_days()
    holdout = config.get("pipeline", "n_train") + config.get("pipeline",
                                                             "n_test")
    if len(days) <= holdout + 1:
        raise DataError("no held-out days to backtest on")
    start = int(data.day_first_steps(days[holdout:holdout + 1])[0])
    data.require_risk_cover(start, data.table.n_steps - 1)
    env = data.make_env(start, data.table.n_steps)
    policy = _evaluation_policy(config, env)
    result = backtest(policy, env, annualization_basis=config.get(
        "pipeline", "annualization_basis"))
    write_backtest_result(result, outdir, data.table.tickers)
    write_manifest(outdir, "backtest", config, [_data_source(config)])
    print(f"backtest over {result.values.size - 1} steps -> "
          f"{os.path.join(outdir, 'metrics.json')}")
    return 0


def cmd_trade_sim(config: RunConfig) -> int:
    outdir = os.path.join(config.get("run", "output_dir"), "trade-sim")
    data = build_rolling_data(config)
    plan = plan_windows(
        data.usable_days().tolist(),
        config.get("pipeline", "n_train"),
        config.get("pipeline", "n_test"),
        config.get("pipeline", "n_trade"))
    factory = make_agent_factory(config)
    log, result = run_rolling(
        data, plan, factory, config.hyper_grid(),
        seed=config.get("run", "seed"),
        annualization_basis=config.get("pipeline", "annualization_basis"))
    if all(r.skipped for r in result.window_reports):
        first = result.window_reports[0]
        raise TrainingError(f"every window was skipped (window "
                            f"{first.window_id}: {first.reason})")
    for report in result.window_reports:
        if report.skipped:
            logger.warning("window %d skipped: %s", report.window_id,
                           report.reason)
    write_backtest_result(result, outdir, data.table.tickers)
    windows_payload = [dataclasses.asdict(r) for r in result.window_reports]
    for row in windows_payload:
        row["trade_day"] = str(row["trade_day"])
        row["grid_scores"] = [list(map(float, s)) for s in row["grid_scores"]]
    with open(os.path.join(outdir, "windows.json"), "w",
              encoding="utf-8") as fh:
        json.dump(windows_payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(outdir, "trade-sim", config, [_data_source(config)])
    print(f"rolling run over {plan.n_trade} trade days, {len(log)} trades "
          f"-> {os.path.join(outdir, 'metrics.json')}")
    return 0


def cmd_report(config: RunConfig, directory: str | None = None) -> int:
    root = directory or config.get("run", "output_dir")
    found = []
    for dirpath, _dirnames, filenames in os.walk(root):
        if "metrics.json" in filenames:
            found.append(dirpath)
    if not found:
        raise DataError(f"no results found under {root}")
    outdir = os.path.join(config.get("run", "output_dir"), "report")
    os.makedirs(outdir, exist_ok=True)
    summary = {}
    for dirpath in sorted(found):
        path = os.path.join(dirpath, "metrics.json")
        with reading(path) as fh:
            try:
                metrics_dict = json.load(fh)
            except ValueError as exc:
                raise DataError(f"{path}: not JSON ({exc})") from None
        if not isinstance(metrics_dict, dict):
            raise DataError(f"{path}: not a JSON object")
        summary[os.path.relpath(dirpath, root)] = metrics_dict
    out_json = os.path.join(outdir, "report.json")
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    # plot-data file: first values.csv found, as x,y series
    for dirpath in sorted(found):
        values_csv = os.path.join(dirpath, "values.csv")
        if os.path.isfile(values_csv):
            with reading(values_csv) as src:
                rows = src.readlines()[1:]  # below the header
            with open(os.path.join(outdir, "plot.csv"), "w",
                      encoding="utf-8") as dst:
                dst.write("x,y\n")
                dst.writelines(rows)
            break
    for name, metrics_dict in summary.items():
        print(f"[{name}]")
        for key in sorted(metrics_dict):
            print(f"  {key} = {metrics_dict[key]}")
    print(f"report -> {out_json}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantgym",
        description="Market data curation, trading environments, and the "
                    "rolling train-test-trade pipeline.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", default=None,
                       help="run config file (defaults apply when omitted)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override one config key")

    for name in ("ingest", "features", "train", "backtest", "trade-sim"):
        common(sub.add_parser(name))
    report = sub.add_parser("report")
    common(report)
    report.add_argument("--dir", default=None,
                        help="directory to scan (default: run output dir)")
    senti = sub.add_parser("sentiment")
    senti_sub = senti.add_subparsers(dest="subcommand", required=True)
    for name in ("score", "build-dict", "eval"):
        common(senti_sub.add_parser(name))
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "features":
            return cmd_features(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "backtest":
            return cmd_backtest(config)
        if args.command == "trade-sim":
            return cmd_trade_sim(config)
        if args.command == "report":
            return cmd_report(config, args.dir)
        if args.command == "sentiment":
            if args.subcommand == "score":
                return cmd_sentiment_score(config)
            if args.subcommand == "build-dict":
                return cmd_sentiment_build_dict(config)
            if args.subcommand == "eval":
                return cmd_sentiment_eval(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except QuantGymError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # an output path that cannot be written
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
