"""Reset/step market environments: share trading and portfolio weights.

Both environments walk a dense BarTable plus an aligned FeatureMatrix
over a half-open step range [start, end); an episode is done when the
cursor reaches end-1 (no next bar to settle against). Instances are
single-owner state machines over shared immutable market data, so many
can run concurrently; ``batch_step`` steps a list of them and
auto-resets finished ones. ``population_returns`` runs one episode on
the step range of each of P environments in lockstep, one (P, n) step
per time step (``episode_returns`` is its case of one environment), and
``EnvPopulation`` steps P auto-resetting episodes the same way.
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


def _row_dots(rows: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``vec @ row`` for each row of a (P, n) array, where vecs is one
    (n,) vector or a (P, n) array of them.

    The stacked (1, n) @ (n, 1) products run the same 1-D dot as a
    single ``vec @ row``, so each row keeps its summation order.
    """
    return (rows[:, None, :] @ vecs[..., :, None])[:, 0, 0]


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

    def _risk_triggered(self, t):
        """Whether the risk control acts at step t, an int or a (P,) vector
        (one False for every row when there is no risk control)."""
        if self.config.risk_indicator == "none" or self.risk_series is None:
            return np.False_
        value = self.risk_series[t]
        return np.isfinite(value) & (value > self.config.risk_threshold)

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
        actions; entry p equals the reward sum of a ``reset()``/``step``
        loop driven by row p of ``act``, bit for bit. A non-finite action
        raises EnvError at its step.
        """
        def checked(obs):
            actions = np.asarray(act(obs), dtype=float)
            if not np.isfinite(actions).all():
                raise EnvError("non-finite action")
            return actions

        return population_returns([self] * population, checked)[0]

    def _reset_rows(self, population: int):
        """Cash (or value) and holdings (or weights) of ``reset()``, per row."""
        first = self.reset().observation()
        return (np.full(population, first[0]),
                np.tile(first[-self.n:], (population, 1)))

    def _observations(self, t, cash, held) -> np.ndarray:
        """``state.observation()`` of P rows at step t, an int or a (P,)
        vector: [cash or value, prices, features, held]."""
        n = self.n
        obs = np.empty((len(cash), self.observation_dim))
        obs[:, 0] = cash
        obs[:, 1:1 + n] = self.table.close[t]
        obs[:, 1 + n:-n] = self.features.values[t].reshape(np.shape(t) + (-1,))
        obs[:, -n:] = held
        return obs


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
        triggered = bool(self._risk_triggered(t))
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
        """``step`` for P rows at step t, an int or a (P,) vector."""
        cfg = self.config
        deltas = np.rint(np.clip(actions, -1.0, 1.0) * cfg.h_max)
        triggered = self._risk_triggered(t)
        if triggered.any():
            deltas = np.where(triggered[..., None], -holdings, deltas)
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
        triggered = bool(self._risk_triggered(t))
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
        """``step`` for P rows at step t, an int or a (P,) vector."""
        cfg = self.config
        new_w = softmax(actions)
        triggered = self._risk_triggered(t)
        if triggered.any():
            new_w = np.where(triggered[..., None], 1.0 / self.n, new_w)
        turnover = 0.5 * np.abs(new_w - weights).sum(axis=1)
        fee = value * cfg.turnover_cost_rate * turnover
        ratio = self.table.close[t + 1].astype(float) / self.table.close[t]
        new_value = value * _row_dots(new_w, ratio) - fee
        reward = (new_value - value) * cfg.reward_scale
        return new_value, new_w, reward


def _shared_env(envs: Sequence[_BaseEnv]) -> _BaseEnv:
    """envs[0], once every env shares its class, table, feature matrix,
    risk series and config, so P rows can step as one population."""
    env = envs[0]
    for other in envs:
        if (type(other) is not type(env) or other.table is not env.table
                or other.features is not env.features
                or other.risk_series is not env.risk_series
                or other.config != env.config):
            raise EnvError("population envs must share one class, table, "
                           "feature matrix, risk series and config")
    return env


def population_returns(envs: Sequence[_BaseEnv], act):
    """Summed rewards of one episode per row, row p on the step range of
    ``envs[p]`` from its ``reset()``, all rows advanced by one (P, n) step.

    ``act`` maps the (P, observation_dim) observations to (P, n) actions.
    Row p's sum equals a ``reset()``/``step`` loop on envs[p] driven by
    row p of ``act``, bit for bit. A row whose episode has ended, or whose
    action was not finite, keeps its state and adds nothing from then on.
    Returns the (P,) sums and a (P,) mask of the rows whose actions all
    stayed finite. The envs must share their data as in ``EnvPopulation``.
    """
    env = _shared_env(envs)
    P, n = len(envs), env.n
    starts = np.array([e.start for e in envs])
    last = np.array([e.end for e in envs]) - 2  # each row's last step
    cash, held = env._reset_rows(P)
    total = np.zeros(P)
    finite = np.ones(P, dtype=bool)
    for k in range(int((last - starts).max()) + 1):
        t = starts + k
        live = finite & (t <= last)
        if not live.all():
            # an ended row reads a valid step; its result is dropped
            t = np.minimum(t, np.maximum(last, 0))
        actions = np.asarray(act(env._observations(t, cash, held)),
                             dtype=float)
        if actions.shape != (P, n):
            raise EnvError(f"actions have shape {actions.shape}, "
                           f"expected {(P, n)}")
        if not np.isfinite(actions).all():
            ok = np.isfinite(actions).all(axis=1)
            finite &= ok | ~live
            live &= ok
            actions = np.where(ok[:, None], actions, 0.0)
        new_cash, new_held, reward = env._population_step(t, cash, held,
                                                          actions)
        if live.all():
            cash, held = new_cash, new_held
            total += reward
        else:
            cash = np.where(live, new_cash, cash)
            held = np.where(live[:, None], new_held, held)
            np.add(total, reward, out=total, where=live)
    return total, finite


class EnvPopulation:
    """P auto-resetting episodes, row p on the step range of ``envs[p]``,
    advanced by one (P, n) step.

    A row whose episode ends restarts from its env's ``reset()``, as a
    reset/step loop that resets on ``done`` does; row p's observations
    and rewards equal that loop on ``envs[p]``, bit for bit. The envs
    must be of one class and share one table, feature matrix, risk
    series and config, as the envs of ``RollingData.make_env`` do.
    """

    def __init__(self, envs: Sequence[_BaseEnv]):
        env = _shared_env(envs)
        for other in envs:
            if other.end - other.start < 2:
                raise EnvError(f"step range [{other.start}, {other.end}) "
                               f"has no step")
        self.env = env
        self.starts = np.array([e.start for e in envs])
        self.ends = np.array([e.end for e in envs])
        self._cash0, self._held0 = env._reset_rows(len(envs))
        self.t = self.starts.copy()
        self.cash, self.held = self._cash0.copy(), self._held0.copy()

    def observations(self) -> np.ndarray:
        return self.env._observations(self.t, self.cash, self.held)

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply (P, n) actions; returns (rewards, done) per row and resets
        the rows that are done. Rows never mix, so a non-finite action
        spoils only its own row."""
        self.cash, self.held, reward = self.env._population_step(
            self.t, self.cash, self.held, actions)
        self.t = self.t + 1
        done = self.t >= self.ends - 1
        if done.any():
            self.t[done] = self.starts[done]
            self.cash[done] = self._cash0[done]
            self.held[done] = self._held0[done]
        return reward, done


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
