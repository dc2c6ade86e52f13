"""Reset/step market environments: share trading and portfolio weights.

Both environments walk a dense BarTable plus an aligned FeatureMatrix
over a half-open step range [start, end); an episode is done when the
cursor reaches end-1 (no next bar to settle against). Instances are
single-owner state machines over shared immutable market data, so many
can run concurrently; ``batch_step`` steps a list of them and
auto-resets finished ones. ``episode_returns`` runs P episodes of one
environment in lockstep, one (P, n) step per time step.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EnvError
from .features import FeatureMatrix, TurbulenceSeries
from .kernels import execute_trades_kernel, execute_trades_population
from .market_data import BarTable, format_timestamp


@dataclass(frozen=True)
class EnvConfig:
    initial_capital: float = 1_000_000.0
    cost_rate: float = 0.001  # fee fraction of each buy/sell notional
    h_max: int = 100  # share scale: action of 1.0 buys h_max shares
    allow_short: bool = False
    allow_margin: bool = False
    risk_indicator: str = "none"  # turbulence | vix | none
    risk_threshold: float = 100.0
    reward_scale: float = 1.0
    turnover_cost_rate: float = 0.0  # portfolio env rebalancing fee

    def __post_init__(self):
        if self.initial_capital <= 0:
            raise EnvError("initial_capital must be positive")
        if not 0.0 <= self.cost_rate <= 0.1:
            raise EnvError("cost_rate must lie in [0, 0.1]")
        if self.h_max <= 0:
            raise EnvError("h_max must be positive")
        if self.risk_indicator not in ("turbulence", "vix", "none"):
            raise EnvError(f"unknown risk_indicator {self.risk_indicator!r}")
        if not 0.0 <= self.turnover_cost_rate <= 0.1:
            raise EnvError("turnover_cost_rate must lie in [0, 0.1]")


@dataclass(frozen=True)
class TradingState:
    t: int
    timestamp: np.datetime64
    balance: float
    holdings: np.ndarray  # (n,) shares
    prices: np.ndarray  # (n,)
    features: np.ndarray  # (n, I)

    @property
    def value(self) -> float:
        return float(self.prices @ self.holdings + self.balance)

    def observation(self) -> np.ndarray:
        return np.concatenate((
            [self.balance], self.prices, self.features.reshape(-1),
            self.holdings))


@dataclass(frozen=True)
class PortfolioState:
    t: int
    timestamp: np.datetime64
    value: float
    prices: np.ndarray
    features: np.ndarray
    weights: np.ndarray  # (n,) on the simplex

    def observation(self) -> np.ndarray:
        return np.concatenate((
            [self.value], self.prices, self.features.reshape(-1),
            self.weights))


@dataclass(frozen=True)
class Transition:
    state: object
    action_applied: np.ndarray  # executed share deltas / applied weights
    reward: float
    next_state: object
    done: bool
    info: dict = field(default_factory=dict)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so a (P, n) batch maps row by row."""
    z = np.exp(x - np.max(x, axis=-1, keepdims=True))
    w = z / z.sum(axis=-1, keepdims=True)
    return w / w.sum(axis=-1, keepdims=True)


def _row_dots(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``vec @ row`` for each row of a (P, n) array.

    The stacked (1, n) @ (n, 1) products run the same 1-D dot as a
    single ``vec @ row``, so each row keeps its summation order.
    """
    return (rows[:, None, :] @ vec[:, None])[:, 0, 0]


class _BaseEnv:
    def __init__(self, config: EnvConfig, table: BarTable,
                 features: FeatureMatrix,
                 risk_series: TurbulenceSeries | np.ndarray | None = None,
                 start: int | None = None, end: int | None = None):
        if not table.dense:
            raise EnvError("environments need a dense (cleaned) table")
        if table.n_steps == 0 or table.n_tickers == 0:
            raise EnvError("empty market data")
        if features.values.shape[:2] != (table.n_steps, table.n_tickers):
            raise EnvError("feature matrix does not match the table grid")
        if not np.array_equal(features.calendar, table.calendar):
            raise EnvError("feature calendar does not match the table calendar")
        self.config = config
        self.table = table
        self.features = features
        if isinstance(risk_series, TurbulenceSeries):
            risk_series = risk_series.values
        if risk_series is not None:
            risk_series = np.asarray(risk_series, dtype=float)
            if risk_series.shape != (table.n_steps,):
                raise EnvError("risk series does not match the calendar")
        if config.risk_indicator != "none" and risk_series is None:
            raise EnvError(
                f"risk_indicator={config.risk_indicator!r} needs a risk series")
        self.risk_series = risk_series
        self.n = table.n_tickers
        self.end = table.n_steps if end is None else int(end)
        self.start = features.warmup if start is None else int(start)
        if not 0 <= self.start < self.end <= table.n_steps:
            raise EnvError(
                f"invalid step range [{self.start}, {self.end}) for "
                f"{table.n_steps} rows")
        if self.start < features.warmup:
            raise EnvError(
                f"start {self.start} is before feature warmup {features.warmup}")
        self._state = None

    @property
    def observation_dim(self) -> int:
        return 1 + self.n * (2 + self.features.n_features)

    @property
    def action_dim(self) -> int:
        return self.n

    @property
    def state(self):
        if self._state is None:
            raise EnvError("reset() the environment before reading its state")
        return self._state

    @property
    def done(self) -> bool:
        return self.state.t >= self.end - 1

    def _risk_triggered(self, t: int) -> bool:
        if self.config.risk_indicator == "none" or self.risk_series is None:
            return False
        value = self.risk_series[t]
        return bool(np.isfinite(value) and value > self.config.risk_threshold)

    def _check_steppable(self, action) -> np.ndarray:
        if self.done:
            raise EnvError("step() called on a finished episode")
        action = np.asarray(action, dtype=float).reshape(-1)
        if action.shape != (self.n,):
            raise EnvError(f"action has shape {action.shape}, expected ({self.n},)")
        if not np.isfinite(action).all():
            raise EnvError("non-finite action")
        return action

    def episode_returns(self, act, population: int) -> np.ndarray:
        """Summed rewards of `population` lockstep episodes from ``reset()``.

        ``act`` maps a (P, observation_dim) batch of observations to (P, n)
        actions. Each step applies the rules of ``step`` to every row, so
        entry p equals the reward sum of a ``reset()``/``step`` loop driven
        by row p of ``act``, bit for bit.
        """
        n = self.n
        # an observation is [cash or value, prices, features, held]
        first = self.reset().observation()
        cash = np.full(population, first[0])
        held = np.tile(first[-n:], (population, 1))
        total = np.zeros(population)
        for t in range(self.start, self.end - 1):
            obs = np.empty((population, self.observation_dim))
            obs[:, 0] = cash
            obs[:, 1:1 + n] = self.table.close[t]
            obs[:, 1 + n:-n] = self.features.values[t].reshape(-1)
            obs[:, -n:] = held
            actions = np.asarray(act(obs), dtype=float)
            if actions.shape != (population, n):
                raise EnvError(f"actions have shape {actions.shape}, "
                               f"expected {(population, n)}")
            if not np.isfinite(actions).all():
                raise EnvError("non-finite action")
            cash, held, reward = self._population_step(t, cash, held, actions)
            total += reward
        return total


class TradingEnv(_BaseEnv):
    """Share-level trading with costs, cash constraint, and risk override.

    Actions are per-ticker reals in [-1, 1], scaled by h_max and rounded
    to integer share deltas. Sells execute before buys; buys clip so the
    balance stays non-negative unless margin is allowed. When the risk
    indicator exceeds its threshold the action is replaced by full
    liquidation.
    """

    def reset(self, start: int | None = None, balance: float | None = None,
              holdings: np.ndarray | None = None) -> TradingState:
        t = self.start if start is None else int(start)
        if t < self.features.warmup:
            raise EnvError(f"start {t} is before feature warmup "
                           f"{self.features.warmup}")
        if not self.start <= t < self.end:
            raise EnvError(f"start {t} outside [{self.start}, {self.end})")
        balance = self.config.initial_capital if balance is None else float(balance)
        if holdings is None:
            holdings = np.zeros(self.n)
        else:
            holdings = np.asarray(holdings, dtype=float).copy()
            if holdings.shape != (self.n,):
                raise EnvError("holdings shape mismatch")
        state = TradingState(t, self.table.calendar[t], balance, holdings,
                             self.table.close[t].astype(float),
                             self.features.values[t].copy())
        self._state = state
        return state

    def step(self, action) -> Transition:
        action = self._check_steppable(action)
        state: TradingState = self._state
        cfg = self.config
        t = state.t
        triggered = self._risk_triggered(t)
        if triggered:
            deltas = -state.holdings.copy()
        else:
            clipped = np.clip(action, -1.0, 1.0)
            deltas = np.rint(clipped * cfg.h_max)
        new_h, new_b, executed, cost = execute_trades_kernel(
            np.ascontiguousarray(state.prices), state.holdings.astype(float),
            float(state.balance), np.ascontiguousarray(deltas, dtype=float),
            cfg.cost_rate, cfg.allow_short, cfg.allow_margin)
        t2 = t + 1
        next_state = TradingState(t2, self.table.calendar[t2], float(new_b),
                                  new_h, self.table.close[t2].astype(float),
                                  self.features.values[t2].copy())
        reward = (next_state.value - state.value) * cfg.reward_scale
        self._state = next_state
        return Transition(state, executed, reward, next_state,
                          t2 >= self.end - 1,
                          {"cost": float(cost), "risk_triggered": triggered})

    def _population_step(self, t, balance, holdings, actions):
        cfg = self.config
        if self._risk_triggered(t):
            deltas = -holdings
        else:
            deltas = np.rint(np.clip(actions, -1.0, 1.0) * cfg.h_max)
        prices = self.table.close[t].astype(float)
        new_h, new_b, _, _ = execute_trades_population(
            prices, holdings, balance, deltas, cfg.cost_rate,
            cfg.allow_short, cfg.allow_margin)
        prices_next = self.table.close[t + 1].astype(float)
        reward = ((_row_dots(new_h, prices_next) + new_b)
                  - (_row_dots(holdings, prices) + balance)) * cfg.reward_scale
        return new_b, new_h, reward


class PortfolioEnv(_BaseEnv):
    """Weight-allocation environment with the multiplicative value recursion.

    Any real action vector maps onto the simplex through softmax; the
    stored value follows v' = v * w.(p'/p) minus an optional turnover
    cost. A risk trigger forces uniform weights for the step.
    """

    def reset(self, start: int | None = None, value: float | None = None,
              weights: np.ndarray | None = None) -> PortfolioState:
        t = self.start if start is None else int(start)
        if t < self.features.warmup:
            raise EnvError(f"start {t} is before feature warmup "
                           f"{self.features.warmup}")
        if not self.start <= t < self.end:
            raise EnvError(f"start {t} outside [{self.start}, {self.end})")
        value = self.config.initial_capital if value is None else float(value)
        if weights is None:
            weights = np.full(self.n, 1.0 / self.n)
        else:
            weights = np.asarray(weights, dtype=float).copy()
            if (weights.shape != (self.n,) or not np.isfinite(weights).all()
                    or not weights.sum() > 0.0):
                raise EnvError(f"bad initial weights: need {self.n} finite "
                               f"values with a positive sum")
            weights = weights / weights.sum()
        state = PortfolioState(t, self.table.calendar[t], value,
                               self.table.close[t].astype(float),
                               self.features.values[t].copy(), weights)
        self._state = state
        return state

    def step(self, action) -> Transition:
        action = self._check_steppable(action)
        state: PortfolioState = self._state
        cfg = self.config
        t = state.t
        triggered = self._risk_triggered(t)
        if triggered:
            weights = np.full(self.n, 1.0 / self.n)
        else:
            weights = softmax(action)
        turnover = 0.5 * np.abs(weights - state.weights).sum()
        fee = state.value * cfg.turnover_cost_rate * turnover
        t2 = t + 1
        prices_next = self.table.close[t2].astype(float)
        growth = float(weights @ (prices_next / state.prices))
        new_value = state.value * growth - fee
        next_state = PortfolioState(t2, self.table.calendar[t2], new_value,
                                    prices_next, self.features.values[t2].copy(),
                                    weights)
        reward = (new_value - state.value) * cfg.reward_scale
        self._state = next_state
        return Transition(state, weights, reward, next_state,
                          t2 >= self.end - 1,
                          {"cost": float(fee), "risk_triggered": triggered})

    def _population_step(self, t, value, weights, actions):
        cfg = self.config
        if self._risk_triggered(t):
            new_w = np.full(actions.shape, 1.0 / self.n)
        else:
            new_w = softmax(actions)
        turnover = 0.5 * np.abs(new_w - weights).sum(axis=1)
        fee = value * cfg.turnover_cost_rate * turnover
        ratio = self.table.close[t + 1].astype(float) / self.table.close[t]
        new_value = value * _row_dots(new_w, ratio) - fee
        reward = (new_value - value) * cfg.reward_scale
        return new_value, new_w, reward


def batch_step(envs: Sequence[_BaseEnv], actions) -> list[Transition]:
    """Step many environments with one call, element-wise identical to a loop.

    A finished environment is reset before its step and the transition's
    info carries ``auto_reset=True``.
    """
    if len(envs) != len(actions):
        raise EnvError(f"{len(envs)} envs but {len(actions)} actions")
    transitions = []
    for env, action in zip(envs, actions):
        auto = False
        if env._state is not None and env.done:
            env.reset()
            auto = True
        transition = env.step(action)
        if auto:
            transition.info["auto_reset"] = True
        transitions.append(transition)
    return transitions


def write_episode_trace(transitions: Sequence[Transition], path: str,
                        tickers: Sequence[str]) -> None:
    """CSV export: t, timestamp, per-ticker action and holdings, accounting."""
    n = len(tickers)
    header = (["t", "timestamp"]
              + [f"action_{tk}" for tk in tickers]
              + [f"holdings_{tk}" for tk in tickers]
              + ["balance", "value", "reward", "cost", "risk_triggered"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for tr in transitions:
            ns = tr.next_state
            if isinstance(ns, TradingState):
                held, balance = ns.holdings, ns.balance
            else:
                held, balance = ns.weights, 0.0
            writer.writerow(
                [tr.state.t, format_timestamp(tr.state.timestamp)]
                + [repr(float(a)) for a in np.asarray(tr.action_applied)]
                + [repr(float(h)) for h in held]
                + [repr(float(balance)), repr(float(ns.value)),
                   repr(float(tr.reward)), repr(float(tr.info.get("cost", 0.0))),
                   str(bool(tr.info.get("risk_triggered", False)))])
