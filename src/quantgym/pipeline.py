"""Window planning, the rolling train-test-trade driver, and metrics.

The rolling driver re-fits an agent for every trade day: hyper-grid
candidates train on the N-day window and are ranked by test-segment
Sharpe, the winner retrains on the combined N+S days, then trades one
day with balance and holdings carried over from the previous day. Every
logged row is marked at its own timestamp with data available at that
instant, so perturbing later data can never change earlier rows.
"""
from __future__ import annotations

import json
import math
import csv
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import check_domain
from .envs import PortfolioEnv, TradingEnv, Transition
from .errors import DataError, QuantGymError, TrainingError, unwrap
from .market_data import format_timestamp


# ---------------------------------------------------------------------------
# performance metrics


def _distinct(values) -> np.ndarray:
    """``np.unique`` of real or datetime values: the sorted distinct
    values, with every NaN (or NaT) collapsed into one, as ``np.unique``
    collapses them.

    The plain ``np.unique`` of numpy 2.x imports ``numpy.ma``, which
    would cost every rolling run about a megabyte of memory.
    """
    v = np.sort(np.ravel(values))
    keep = np.empty(len(v), dtype=bool)
    keep[:1] = True
    keep[1:] = v[1:] != v[:-1]
    if v.dtype.kind in "fmM":
        missing = np.isnan(v)
        keep[1:] &= ~(missing[1:] & missing[:-1])
    return v[keep]


@dataclass(frozen=True)
class Metrics:
    cumulative_return: float
    annualized_return: float | None  # None when it overflows a float
    # across yearly returns; needs >= 2 years, None when a yearly return
    # overflows
    annualized_volatility: float | None
    step_volatility_annualized: float  # std of per-step returns, annualized
    sharpe: float | None  # per-step, population std; None when flat
    sharpe_annualized: float | None
    max_drawdown: float

    def to_dict(self) -> dict:
        return {
            "cumulative_return": self.cumulative_return,
            "annualized_return": self.annualized_return,
            "annualized_volatility": self.annualized_volatility,
            "step_volatility_annualized": self.step_volatility_annualized,
            "sharpe": self.sharpe,
            "sharpe_annualized": self.sharpe_annualized,
            "max_drawdown": self.max_drawdown,
        }


def max_drawdown(values: np.ndarray) -> float:
    peak = values[0]
    worst = 0.0
    for v in values:
        if v > peak:
            peak = v
        draw = (peak - v) / peak
        if draw > worst:
            worst = draw
    return float(worst)


def metrics(values, risk_free: float = 0.0, trading_days: int | None = None,
            timestamps=None, annualization_basis: int = 365,
            steps_per_year: float | None = None) -> Metrics:
    """Standard performance metrics from a positive value series.

    `trading_days` drives annualization (default: unique timestamp days,
    else step count). Annualized volatility across calendar years is
    only defined when timestamps span at least two years; the always
    available per-step volatility is reported under a distinct name.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size < 2:
        raise DataError("need at least two portfolio values")
    if not (np.isfinite(values).all() and (values > 0).all()):
        raise DataError("portfolio values must be positive and finite")
    check_domain("pipeline", "annualization_basis", annualization_basis,
                 DataError)

    steps = values.size - 1
    days = None
    if timestamps is not None:
        stamps = np.asarray(timestamps).astype("datetime64[D]")
        days = len(_distinct(stamps))
    t = trading_days if trading_days is not None else (days or steps)
    if t < 1:
        raise DataError("trading_days must be >= 1")

    cumulative = float(values[-1] / values[0] - 1.0)
    try:
        annualized = float((1.0 + cumulative) ** (annualization_basis / t)
                           - 1.0)
    except OverflowError:  # a large gain over a short span
        annualized = None

    step_returns = values[1:] / values[:-1] - 1.0
    std = float(step_returns.std())  # population
    mean = float(step_returns.mean())
    if steps_per_year is None:
        steps_per_year = annualization_basis * (steps / t)
    step_vol_ann = std * math.sqrt(steps_per_year)

    if std <= 1e-12:  # flat: a spread of roundoff is no risk to price
        sharpe = sharpe_ann = None
    else:
        sharpe = (mean - risk_free) / std
        sharpe_ann = sharpe * math.sqrt(steps_per_year)

    annual_vol = None
    if timestamps is not None:
        stamps = np.asarray(timestamps).astype("datetime64[s]")
        years = stamps.astype("datetime64[Y]").astype(int)
        uniq = _distinct(years)
        if len(uniq) >= 2:
            yearly = []
            for y in uniq:
                idx = np.flatnonzero(years == y)
                lo = idx[0] - 1 if idx[0] > 0 else 0
                seg = values[lo:idx[-1] + 1]
                seg_days = len(_distinct(stamps[idx].astype("datetime64[D]")))
                growth = seg[-1] / seg[0]
                with np.errstate(over="ignore"):  # inf is refused below
                    yearly.append(
                        growth ** (annualization_basis / max(seg_days, 1))
                        - 1.0)
            yearly = np.asarray(yearly)
            if np.isfinite(yearly).all():
                annual_vol = float(yearly.std(ddof=1))

    return Metrics(cumulative, annualized, annual_vol, step_vol_ann,
                   sharpe, sharpe_ann, max_drawdown(values))


# ---------------------------------------------------------------------------
# window planning


@dataclass(frozen=True)
class Window:
    """Day-index ranges for one trade day (all half-open in day space)."""

    index: int
    train_start: int
    train_stop: int  # == test_start
    test_stop: int  # == trade_day
    trade_day: int


@dataclass(frozen=True)
class WindowPlan:
    days: tuple  # ordered day values the indices refer to
    n_train: int
    n_test: int
    n_trade: int
    windows: tuple[Window, ...]


def plan_windows(days: Sequence, n_train: int, n_test: int,
                 n_trade: int) -> WindowPlan:
    """One window per trade day: train on the N days ending S+1 days
    before it, test on the S days just before it, then trade it.

    Consecutive windows shift by exactly one day; the first trade day is
    day index N+S.
    """
    for key, value in (("n_train", n_train), ("n_test", n_test),
                       ("n_trade", n_trade)):
        check_domain("pipeline", key, value, DataError)
    if len(days) < n_train + n_test + n_trade:
        raise DataError(
            f"calendar has {len(days)} days, need at least "
            f"{n_train + n_test + n_trade}")
    windows = []
    for k in range(n_trade):
        d = n_train + n_test + k
        windows.append(Window(
            index=k,
            train_start=d - n_test - n_train,
            train_stop=d - n_test,
            test_stop=d,
            trade_day=d,
        ))
    return WindowPlan(tuple(days), n_train, n_test, n_trade, tuple(windows))


# ---------------------------------------------------------------------------
# backtesting


@dataclass(frozen=True)
class TradeRow:
    timestamp: np.datetime64
    window_id: int
    action: np.ndarray  # raw policy action
    executed: np.ndarray  # executed deltas / applied weights
    cost: float
    value: float  # value at this row's timestamp, before the step settles
    risk_triggered: bool = False


@dataclass
class TradeLog:
    rows: list[TradeRow] = field(default_factory=list)

    def append(self, row: TradeRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def write_csv(self, path: str, tickers: Sequence[str]) -> None:
        header = (["timestamp", "window_id"]
                  + [f"action_{tk}" for tk in tickers]
                  + [f"executed_{tk}" for tk in tickers]
                  + ["cost", "value", "risk_triggered"])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in self.rows:
                writer.writerow(
                    [format_timestamp(row.timestamp), row.window_id]
                    + [repr(float(a)) for a in row.action]
                    + [repr(float(e)) for e in row.executed]
                    + [repr(float(row.cost)), repr(float(row.value)),
                       str(bool(row.risk_triggered))])


@dataclass
class BacktestResult:
    values: np.ndarray  # (T+1,) portfolio values, v_0 first
    timestamps: np.ndarray
    returns: np.ndarray  # (T,) per-step simple returns
    trade_log: TradeLog
    metrics: Metrics | None
    transitions: list[Transition] = field(default_factory=list)
    window_reports: list = field(default_factory=list)


def _policy_env_compatible(policy, env) -> None:
    obs_dim = getattr(policy, "obs_dim", None)
    if obs_dim is not None and obs_dim != env.observation_dim:
        raise TrainingError(
            f"policy expects obs dim {obs_dim}, env provides "
            f"{env.observation_dim}")
    action_dim = getattr(policy, "action_dim", None)
    if action_dim is not None and action_dim != env.action_dim:
        raise TrainingError(
            f"policy emits {action_dim} actions, env needs {env.action_dim}")


def backtest(policy, env, reset_kwargs: dict | None = None,
             window_id: int = 0, annualization_basis: int = 365,
             trade_log: TradeLog | None = None) -> BacktestResult:
    """Run one deterministic evaluation episode and attach metrics."""
    log = trade_log if trade_log is not None else TradeLog()
    values, stamps, transitions = _episode(policy, env, reset_kwargs,
                                           window_id, log)
    return _result(values, stamps, log, transitions,
                   annualization_basis=annualization_basis)


def _episode(policy, env, reset_kwargs, window_id, log):
    """``backtest``'s episode without its metrics: the values and
    timestamps from the reset state on, and the transitions; each step's
    row goes to log."""
    _policy_env_compatible(policy, env)
    policy.begin_episode()
    state = env.reset(**(reset_kwargs or {}))
    values = [state.value]
    stamps = [state.timestamp]
    transitions: list[Transition] = []
    while not env.done:
        with np.errstate(all="ignore"):  # a non-finite action fails in step
            action = np.asarray(policy.act(state.observation()), dtype=float)
        transition = env.step(action)
        log.append(TradeRow(
            timestamp=state.timestamp, window_id=window_id, action=action,
            executed=np.asarray(transition.action_applied, dtype=float),
            cost=float(transition.info.get("cost", 0.0)),
            value=state.value,
            risk_triggered=bool(transition.info.get("risk_triggered", False))))
        transitions.append(transition)
        state = transition.next_state
        values.append(state.value)
        stamps.append(state.timestamp)
    return values, stamps, transitions


def _result(values, stamps, log, transitions, window_reports=(),
            **metric_kwargs) -> BacktestResult:
    """The BacktestResult of a value series and its timestamps, with
    ``metrics`` (given metric_kwargs) once it holds two values."""
    values = np.asarray(values)
    stamps = np.asarray(stamps, dtype="datetime64[s]")
    m = None
    returns = np.zeros(0)
    if values.size >= 2:
        m = metrics(values, timestamps=stamps, **metric_kwargs)
        returns = values[1:] / values[:-1] - 1.0
    return BacktestResult(values, stamps, returns, log, m, list(transitions),
                          list(window_reports))


# ---------------------------------------------------------------------------
# rolling train-test-trade driver


@dataclass
class RollingData:
    """Everything the rolling driver needs to build segment environments."""

    table: object  # BarTable
    features: object  # FeatureMatrix
    env_config: object  # EnvConfig
    env_kind: str = "trading"  # trading | portfolio
    risk_series: np.ndarray | None = None

    def __post_init__(self):
        check_domain("env", "kind", self.env_kind, DataError)

    def make_env(self, start: int, end: int):
        cls = TradingEnv if self.env_kind == "trading" else PortfolioEnv
        return cls(self.env_config, self.table, self.features,
                   self.risk_series, start, end)

    def require_risk_cover(self, lo: int, hi: int) -> None:
        """DataError when the configured risk series has no finite value
        on steps [lo, hi), so its control could never act there."""
        if self.env_config.risk_indicator == "none" or self.risk_series is None:
            return  # make_env reports a missing series
        if not np.isfinite(self.risk_series[lo:max(hi, lo + 1)]).any():
            raise DataError(
                f"the {self.env_config.risk_indicator} risk series has no "
                f"finite value over the traded steps [{lo}, {hi})")

    def usable_days(self) -> np.ndarray:
        """Calendar days from the feature warmup onward."""
        dates = self.table.calendar.astype("datetime64[D]")
        warm_day = dates[self.features.warmup]
        uniq = _distinct(dates)
        return uniq[uniq >= warm_day]

    def day_first_steps(self, days) -> np.ndarray:
        dates = self.table.calendar.astype("datetime64[D]")
        firsts = []
        for day in days:
            idx = np.flatnonzero(dates == day)
            if len(idx) == 0:
                raise DataError(f"day {day} not present in the table")
            firsts.append(int(idx[0]))
        return np.asarray(firsts)


@dataclass(frozen=True)
class WindowReport:
    window_id: int
    trade_day: object
    grid_scores: tuple
    selected: int
    skipped: bool = False
    reason: str = ""


def _carry_kwargs(env, carry):
    if carry is None:
        return {}
    if isinstance(env, TradingEnv):
        return {"balance": carry[0], "holdings": carry[1]}
    return {"value": carry[0], "weights": carry[1]}


def _extract_carry(env):
    state = env.state
    if isinstance(env, TradingEnv):
        return (state.balance, state.holdings.copy())
    return (state.value, state.weights.copy())


class _Hold:
    """The policy of a skipped window: keep the carried position. It
    trades no share; on the portfolio env its logits are the log of the
    held weights, the last n observation entries."""

    def __init__(self, env):
        self.n, self.portfolio = env.n, isinstance(env, PortfolioEnv)

    def begin_episode(self) -> None:
        pass

    def act(self, observation: np.ndarray) -> np.ndarray:
        if self.portfolio:
            return np.log(np.maximum(observation[-self.n:], 1e-12))
        return np.zeros(self.n)


def score_key(result: BacktestResult) -> tuple:
    """Candidate ranking key: any defined Sharpe beats every undefined one.

    Defined Sharpes rank by value; without one (flat value series) the
    cumulative return decides. The first candidate with the largest key
    wins, so ties go to the lowest index.
    """
    m = result.metrics
    if m is None:
        return (0, 0.0)
    if m.sharpe is None:
        return (0, m.cumulative_return)
    return (1, m.sharpe)


def _child_seed(seed: int, window: Window, slot: int) -> int:
    """Training seed of grid point `slot` (the retrain: len(grid)) in a window."""
    return int(np.random.SeedSequence(
        entropy=(seed, window.index, slot)).generate_state(1)[0])


# the benchmark's traced ops wrap the factory without its fit_all
def _fit_each(agent_factory: Callable, jobs) -> list:
    """Fit (env, hyper, seed) jobs one by one: a policy or the error each
    job raised, so the caller can replay them in its own order."""
    outcomes = []
    for job in jobs:
        try:
            outcomes.append(agent_factory(*job))
        except QuantGymError as exc:
            outcomes.append(exc)
    return outcomes


def run_rolling(data: RollingData, plan: WindowPlan,
                agent_factory: Callable, hyper_grid: Sequence[dict] | None = None,
                seed: int = 0, annualization_basis: int = 365,
                ) -> tuple[TradeLog, BacktestResult]:
    """Walk the plan: select on test Sharpe, retrain, trade one day each.

    `agent_factory(env, hyper, seed)` must return a trained policy.
    Training never sees the carried capital, so the run goes in phases:
    fit every (window, grid point) candidate, score them on their test
    segments and select one per window, fit every selected retrain, then
    trade the days in order, each day one ``backtest`` episode that
    starts from the capital (balance and holdings, or value and weights)
    the day before left. A factory with a ``fit_all(jobs)`` attribute
    fits a list of (env, hyper, seed) jobs at once, returning one policy
    or one raised error per job; otherwise jobs are fitted one by one.
    Either way each window replays its jobs in the order above: the
    first TrainingError skips the window, which then holds its position
    for the day, and is reported. Returns the trade log and the
    concatenated-day backtest result (window reports attached to
    ``result.trade_log`` rows via window ids and to the result as
    ``result.window_reports``).
    """
    hyper_grid = list(hyper_grid) if hyper_grid else [{}]
    ranked = len(hyper_grid) > 1
    fit_all = getattr(agent_factory, "fit_all", None) or (
        lambda jobs: _fit_each(agent_factory, jobs))
    days = np.asarray(plan.days)
    firsts = data.day_first_steps(days)
    T = data.table.n_steps

    def day_start(i: int) -> int:
        return int(firsts[i]) if i < len(firsts) else T - 1

    data.require_risk_cover(day_start(plan.windows[0].trade_day),
                            day_start(plan.windows[-1].trade_day + 1))
    for window in plan.windows:
        if day_start(window.train_stop) - day_start(window.train_start) < 2:
            raise DataError(
                f"train segment for window {window.index} has fewer than "
                f"2 steps; increase n_train or the data span")

    # 1. every (window, grid point) candidate, popped once scored so the
    # policies of scored windows can be freed
    candidates = deque(fit_all([
        (data.make_env(day_start(w.train_start), day_start(w.train_stop)),
         hyper, _child_seed(seed, w, gi))
        for w in plan.windows if ranked for gi, hyper in enumerate(hyper_grid)]))

    # 2. score the candidates and select one per window
    picks = []  # (grid scores, selected grid point, skip reason or None)
    for window in plan.windows:
        scores = [(0, 0.0)] * len(hyper_grid)
        selected = 0
        reason = None
        outcomes = [candidates.popleft() for _ in hyper_grid] if ranked else []
        try:
            for gi, outcome in enumerate(outcomes):
                cand = unwrap(outcome)
                if plan.n_test > 0:
                    test_env = data.make_env(day_start(window.train_stop),
                                             day_start(window.test_stop))
                    res = backtest(cand, test_env,
                                   annualization_basis=annualization_basis)
                    scores[gi] = score_key(res)
            selected = max(range(len(scores)), key=scores.__getitem__)
        except TrainingError as exc:
            reason = str(exc)
        picks.append((tuple(scores), selected, reason))

    # 3. retrain each selected configuration on train+test
    retrained = iter(fit_all([
        (data.make_env(day_start(w.train_start), day_start(w.test_stop)),
         hyper_grid[selected], _child_seed(seed, w, len(hyper_grid)))
        for w, (_, selected, reason) in zip(plan.windows, picks)
        if reason is None]))

    # 4. trade the days in order, carrying capital over
    log = TradeLog()
    reports: list[WindowReport] = []
    carry = None
    values: list[float] = []
    stamps: list = []
    for window, (scores, selected, reason) in zip(plan.windows, picks):
        policy = None
        if reason is None:
            try:
                policy = unwrap(next(retrained))
            except TrainingError as exc:
                reason = str(exc)
        reports.append(WindowReport(window.index, days[window.trade_day],
                                    scores, selected, reason is not None,
                                    reason or ""))

        trade_lo = day_start(window.trade_day)
        settle = day_start(window.trade_day + 1)
        env = data.make_env(trade_lo, min(max(settle + 1, trade_lo + 1), T))
        day_values, day_stamps, _ = _episode(
            _Hold(env) if policy is None else policy, env,
            _carry_kwargs(env, carry), window.index, log)
        first = 1 if values else 0  # a later day starts where one ended
        values.extend(day_values[first:])
        stamps.extend(day_stamps[first:])
        carry = _extract_carry(env)

    return log, _result(values, stamps, log, (), reports,
                        trading_days=plan.n_trade,
                        annualization_basis=annualization_basis)


# ---------------------------------------------------------------------------
# artifact export


def write_backtest_result(result: BacktestResult, outdir: str,
                          tickers: Sequence[str]) -> dict:
    """Write metrics.json, values.csv, and trades.csv under outdir."""
    os.makedirs(outdir, exist_ok=True)
    metrics_path = os.path.join(outdir, "metrics.json")
    payload = result.metrics.to_dict() if result.metrics else {}
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(outdir, "values.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for ts, v in zip(result.timestamps, result.values):
            writer.writerow([format_timestamp(ts), repr(float(v))])
    result.trade_log.write_csv(os.path.join(outdir, "trades.csv"), tickers)
    return {"metrics": metrics_path}
