"""Reset/step market environments: share trading and portfolio weights.

Both environments walk a dense BarTable plus an aligned FeatureMatrix
over a half-open step range [start, end); an episode is done when the
cursor reaches end-1 (no next bar to settle against). Instances are
single-owner state machines over shared immutable market data, so many
can run concurrently; ``batch_step`` steps a list of them and
auto-resets finished ones. Each env writes its rule once, as a (P, n)
``_population_step``: ``step`` is its case of one row, and
``EnvPopulation`` is the one lockstep driver, stepping P auto-resetting
episodes of envs with equal ``population_key``. ``population_returns``
sums one episode per row of an ``EnvPopulation``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import check_domain
from .errors import EnvError
from .features import FeatureMatrix, TurbulenceSeries
from .kernels import _added_in_order, execute_trades_population
# the benchmark's kernels.execute_trades hook looks this name up here
from .kernels import execute_trades_kernel  # noqa: F401
from .market_data import BarTable


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
        for f in fields(self):
            check_domain("env", f.name, getattr(self, f.name), EnvError)


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
    """Softmax over the last axis, so a (P, n) batch maps row by row.
    Normalized twice, in place."""
    z = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


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

    @cached_property
    def _risk_flags(self):
        """Per step, whether the risk value is finite and above the
        threshold; None without risk control. Computed on first use."""
        if self.config.risk_indicator == "none" or self.risk_series is None:
            return None
        value = self.risk_series
        return np.isfinite(value) & (value > self.config.risk_threshold)

    def _risk_triggered(self, t):
        """Whether the risk control acts at step t, an int or a (P,) vector
        (one False for every row when there is no risk control)."""
        flags = self._risk_flags
        return np.False_ if flags is None else flags[t]

    def _check_steppable(self, action) -> np.ndarray:
        if self.done:
            raise EnvError("step() called on a finished episode")
        action = np.asarray(action, dtype=float).reshape(-1)
        if action.shape != (self.n,):
            raise EnvError(f"action has shape {action.shape}, expected ({self.n},)")
        if not np.isfinite(action).all():
            raise EnvError("non-finite action")
        return action

    def _reset_step(self, start: int | None) -> int:
        """The step ``reset(start)`` starts at: start, else the first of
        the step range."""
        t = self.start if start is None else int(start)
        if t < self.features.warmup:
            raise EnvError(f"start {t} is before feature warmup "
                           f"{self.features.warmup}")
        if not self.start <= t < self.end:
            raise EnvError(f"start {t} outside [{self.start}, {self.end})")
        return t

    @cached_property
    def _market(self) -> np.ndarray:
        """Row t: the closes, then the features, of step t, as one
        observation holds them. Computed on first use."""
        return np.concatenate((self.table.close, self.features.values.reshape(
            self.table.n_steps, -1)), axis=1)

    def _observations(self, t, cash, held) -> np.ndarray:
        """``state.observation()`` of P rows at step t, an int or a (P,)
        vector: [cash or value, prices, features, held]."""
        n = self.n
        obs = np.empty((len(cash), self.observation_dim))
        obs[:, 0] = cash
        obs[:, 1:-n] = self._market[t]
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
        t = self._reset_step(start)
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
        t, t2 = state.t, state.t + 1
        balance, holdings = np.array([state.balance]), state.holdings[None]
        balance, holdings, _, reward, executed, triggered = \
            self._population_step(t, balance, holdings,
                                  self._values(t, balance, holdings),
                                  action[None])
        executed = executed[0]
        # the fill kernel's fee total: sells, then buys, in ticker order
        fees = self.config.cost_rate * (np.abs(executed) * state.prices)
        cost = _added_in_order(np.concatenate((fees[executed < 0.0],
                                               fees[executed > 0.0])))
        next_state = TradingState(t2, self.table.calendar[t2],
                                  float(balance[0]), holdings[0],
                                  self.table.close[t2].astype(float),
                                  self.features.values[t2].copy())
        self._state = next_state
        return Transition(state, executed, float(reward[0]), next_state,
                          t2 >= self.end - 1,
                          {"cost": cost, "risk_triggered": bool(triggered)})

    def _values(self, t, balance, holdings) -> np.ndarray:
        """The (P,) account values of P rows at step t, an int or a (P,)
        vector: holdings at the close of step t plus the balance."""
        return _row_dots(holdings, self.table.close[t]) + balance

    def _population_step(self, t, balance, holdings, value, actions):
        """One step of P rows at step t, an int or a (P,) vector, whose
        ``_values`` are value: the new (P,) balances, (P, n) holdings,
        (P,) values and (P,) rewards, then the executed share deltas and
        the risk flag (per row, or one for every row when t is an
        int)."""
        cfg = self.config
        # np.clip's values, then scaled and rounded, in one new array
        deltas = np.minimum(actions, 1.0)
        np.maximum(deltas, -1.0, out=deltas)
        deltas *= cfg.h_max
        np.rint(deltas, out=deltas)
        triggered = self._risk_triggered(t)
        if triggered.any():
            np.negative(holdings, out=deltas, where=triggered[..., None])
        prices = self.table.close[t]
        new_h, new_b, executed = execute_trades_population(
            prices, holdings, balance, deltas, cfg.cost_rate,
            cfg.allow_short, cfg.allow_margin)
        new_value = self._values(t + 1, new_b, new_h)
        reward = (new_value - value) * cfg.reward_scale
        return new_b, new_h, new_value, reward, executed, triggered


class PortfolioEnv(_BaseEnv):
    """Weight-allocation environment with the multiplicative value recursion.

    Any real action vector maps onto the simplex through softmax; the
    stored value follows v' = v * w.(p'/p) minus an optional turnover
    cost. A risk trigger forces uniform weights for the step.
    """

    def reset(self, start: int | None = None, value: float | None = None,
              weights: np.ndarray | None = None) -> PortfolioState:
        t = self._reset_step(start)
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

    @cached_property
    def _price_ratios(self) -> np.ndarray:
        """Row t: close[t + 1] / close[t]. Computed on first use."""
        close = self.table.close
        with np.errstate(all="ignore"):
            return close[1:] / close[:-1]

    def step(self, action) -> Transition:
        action = self._check_steppable(action)
        state: PortfolioState = self._state
        t, t2 = state.t, state.t + 1
        value = np.array([state.value])
        value, weights, _, reward, _, triggered, fee = self._population_step(
            t, value, state.weights[None], value, action[None])
        next_state = PortfolioState(t2, self.table.calendar[t2],
                                    float(value[0]),
                                    self.table.close[t2].astype(float),
                                    self.features.values[t2].copy(),
                                    weights[0])
        self._state = next_state
        return Transition(state, weights[0], float(reward[0]), next_state,
                          t2 >= self.end - 1,
                          {"cost": float(fee[0]),
                           "risk_triggered": bool(triggered)})

    def _values(self, t, value, weights) -> np.ndarray:
        """The (P,) values of P rows: the first slot of their state."""
        return value

    def _population_step(self, t, _, weights, value, actions):
        """One step of P rows at step t, an int or a (P,) vector, whose
        values are value (also their first state slot): the new (P,)
        values, (P, n) weights, (P,) values again and (P,) rewards, then
        the applied weights (the new weights), the risk flag (per row, or
        one for every row when t is an int) and the (P,) turnover
        fees."""
        cfg = self.config
        new_w = softmax(actions)
        triggered = self._risk_triggered(t)
        if triggered.any():
            new_w = np.where(triggered[..., None], 1.0 / self.n, new_w)
        change = new_w - weights
        turnover = 0.5 * np.add.reduce(np.abs(change, out=change), axis=1)
        fee = value * cfg.turnover_cost_rate * turnover
        new_value = value * _row_dots(new_w, self._price_ratios[t]) - fee
        reward = (new_value - value) * cfg.reward_scale
        return new_value, new_w, new_value, reward, new_w, triggered, fee


def population_key(env: _BaseEnv) -> tuple:
    """What envs must share to step as one population: class, table,
    feature matrix and risk series (the objects themselves) and config."""
    return (type(env), id(env.table), id(env.features), id(env.risk_series),
            env.config)


class EnvPopulation:
    """P auto-resetting episodes, row p on the step range of ``envs[p]``,
    advanced by one (P, n) step.

    A row whose episode ends restarts from its env's ``reset()``, as a
    reset/step loop that resets on ``done`` does; row p's observations
    and rewards equal that loop on ``envs[p]``, bit for bit. The envs
    must have one ``population_key``, as the envs of
    ``RollingData.make_env`` do, and each range must hold a step.
    Each row's value after a step is the value the next step starts
    from, so it is carried, not computed again; a reset row takes the
    value of its start, computed once.
    """

    def __init__(self, envs: Sequence[_BaseEnv]):
        env = envs[0]
        key = population_key(env)
        for other in {id(e): e for e in envs}.values():  # each env once
            if population_key(other) != key:
                raise EnvError("population envs must share one class, table, "
                               "feature matrix, risk series and config")
            if other.end - other.start < 2:
                raise EnvError(f"step range [{other.start}, {other.end}) "
                               f"has no step")
        self.env = env
        self.starts = np.array([e.start for e in envs])
        self.ends = np.array([e.end for e in envs])
        self._last = self.ends - 1  # a row is done once t reaches it
        first = env.reset().observation()
        self._cash0 = np.full(len(envs), first[0])
        self._held0 = np.tile(first[-env.n:], (len(envs), 1))
        self._value0 = env._values(self.starts, self._cash0, self._held0)
        self.t = self.starts.copy()
        self.cash, self.held = self._cash0.copy(), self._held0.copy()
        self.value = self._value0.copy()

    def observations(self) -> np.ndarray:
        return self.env._observations(self.t, self.cash, self.held)

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply (P, n) actions; returns (rewards, done) per row and resets
        the rows that are done. Rows never mix, so a non-finite action
        spoils only its own row."""
        self.cash, self.held, self.value, reward = \
            self.env._population_step(self.t, self.cash, self.held,
                                      self.value, actions)[:4]
        self.t += 1
        done = self.t >= self._last
        if done.any():
            self.t[done] = self.starts[done]
            self.cash[done] = self._cash0[done]
            self.held[done] = self._held0[done]
            self.value[done] = self._value0[done]
        return reward, done


def population_returns(envs: Sequence[_BaseEnv], act):
    """Summed rewards of one episode per row of ``EnvPopulation(envs)``:
    row p on the step range of ``envs[p]`` from its ``reset()``, which
    must hold at least one step.

    ``act`` maps the (P, observation_dim) observations to (P, n) actions.
    Row p's sum equals a ``reset()``/``step`` loop on envs[p] driven by
    row p of ``act``, bit for bit. A row adds nothing once its episode
    has ended or once its action was not finite; non-finite actions are
    zeroed before the step. Returns the (P,) sums and a (P,) mask of the
    rows whose actions all stayed finite while their episode ran.
    """
    population = EnvPopulation(envs)
    P, n = len(envs), population.env.n
    lengths = population.ends - population.starts - 1  # steps per episode
    total = np.zeros(P)
    finite = np.ones(P, dtype=bool)
    for k in range(int(lengths.max())):
        live = finite & (k < lengths)
        actions = np.asarray(act(population.observations()), dtype=float)
        if actions.shape != (P, n):
            raise EnvError(f"actions have shape {actions.shape}, "
                           f"expected {(P, n)}")
        if not np.isfinite(actions).all():
            ok = np.isfinite(actions).all(axis=1)
            finite &= ok | ~live
            live &= ok
            actions = np.where(ok[:, None], actions, 0.0)
        reward = population.step(actions)[0]
        if live.all():
            total += reward
        else:
            np.add(total, reward, out=total, where=live)
    return total, finite


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
