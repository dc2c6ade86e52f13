"""Synchronous advantage actor-critic trained with numpy backprop.

``train_a2c_all`` trains many (env, config) jobs as lockstep populations
over an ``EnvPopulation``: one env step per rollout step for all rows,
whatever their network shapes, and one stacked forward, loss and Adam
step per shape. The ``_Learners`` rows sample, update and check for
divergence. ``train_a2c`` is its case of one job.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Sequence

import numpy as np

from ..envs import EnvPopulation, _row_dots
from ..errors import TrainingError
from .policy import GaussianPolicy, TrainConfig, check_policy_sizes

LOG_2PI = math.log(2.0 * math.pi)

# Rows per lockstep population. A population's per-step Python cost is
# shared by all its rows, of every network shape, while its arrays grow
# with them. 64 rows run each 48-job candidate phase of
# rolling-a2c-portfolio (two learning rates by two `hidden` values over
# 12 trade days) as one population, where 30 rows and one population per
# shape took two, so an op steps the market 1024 times instead of 2048:
# `work_per_s` rose from 37.6 to 43.5 (median of ten 12 s pairs, shared
# 2-core host) at 2.6% more peak RSS (44.5 -> 45.7 MB), as both shapes'
# parameters and Adam moments now live at once. The cap also keeps
# memory from growing with the number of trade days.
LOCKSTEP_ROWS = 64


def _stacked_loss_and_grad(policy: GaussianPolicy, params: np.ndarray,
                           obs_scale: np.ndarray, obs: np.ndarray,
                           actions: np.ndarray, returns: np.ndarray,
                           advantages: np.ndarray, entropy_coef: float,
                           vf_coef: float) -> tuple[np.ndarray, np.ndarray]:
    """``a2c_loss_and_grad`` of P parameter rows, each on its own batch.

    params is (P, n_parameters), obs_scale (P, obs_dim), obs (P, B,
    obs_dim), actions (P, B, action_dim), returns and advantages (P, B);
    ``policy`` only supplies the shapes. Returns the (P,) losses and the
    (P, n_parameters) gradients.
    """
    B = obs.shape[1]
    f = policy._unflatten(params)
    mean, value, h = policy.forward_population(obs, f, obs_scale)
    log_std = f["log_std"]
    std = np.exp(log_std)[:, None, :]

    z = (actions - mean) / std
    logp = -0.5 * (z * z).sum(axis=2) - log_std.sum(axis=1)[:, None] \
        - 0.5 * policy.action_dim * LOG_2PI
    entropy = log_std.sum(axis=1) + 0.5 * policy.action_dim * (LOG_2PI + 1.0)

    policy_loss = -(logp * advantages).mean(axis=1)
    value_err = value - returns
    value_loss = (value_err * value_err).mean(axis=1)
    loss = policy_loss + vf_coef * value_loss - entropy_coef * entropy

    # backward pass
    dmean = (-advantages[:, :, None] / B) * ((actions - mean) / (std * std))
    dlog_std = (-1.0 / B) * (advantages[:, :, None] * (z * z - 1.0)).sum(
        axis=1) - entropy_coef
    dvalue = vf_coef * 2.0 * value_err / B

    # each part is written into the gradient as soon as it exists, which
    # keeps the peak memory of a large population down
    grad = np.empty_like(params)
    g = policy._unflatten(grad)
    g["log_std"][...] = dlog_std
    dh = dmean @ f["W2"] + dvalue[:, :, None] * f["wv"][:, None, :]
    dz1 = dh * (1.0 - h * h)
    g["W2"][...] = dmean.transpose(0, 2, 1) @ h
    g["b2"][...] = dmean.sum(axis=1)
    g["wv"][...] = (h.transpose(0, 2, 1) @ dvalue[:, :, None])[:, :, 0]
    g["bv"][...] = dvalue.sum(axis=1)
    del dh, dmean, h
    g["W1"][...] = dz1.transpose(0, 2, 1) @ (obs / obs_scale[:, None, :])
    g["b1"][...] = dz1.sum(axis=1)
    return loss, grad


def a2c_loss_and_grad(policy: GaussianPolicy, obs: np.ndarray,
                      actions: np.ndarray, returns: np.ndarray,
                      advantages: np.ndarray, entropy_coef: float,
                      vf_coef: float) -> tuple[float, np.ndarray]:
    """Loss and its analytic gradient w.r.t. the flat parameter vector.

    Policy term: -mean(log pi(a|s) * advantage) with the advantage held
    constant. Value term: mean squared error against the n-step returns.
    Entropy bonus is exact for a diagonal Gaussian (depends on log_std
    only). This is the P=1 case of the stacked loss the trainers run.
    """
    loss, grad = _stacked_loss_and_grad(
        policy, policy.get_flat()[None], policy.obs_scale[None],
        np.atleast_2d(np.asarray(obs, dtype=float))[None],
        np.asarray(actions, dtype=float)[None],
        np.asarray(returns, dtype=float)[None],
        np.asarray(advantages, dtype=float)[None], entropy_coef, vf_coef)
    return float(loss[0]), grad[0]


class Adam:
    """Adam over a parameter array; with (P, size) parameters, lr may be a
    (P, 1) column of per-row learning rates."""

    def __init__(self, size, lr, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Update params in place and return it; grad is spent as scratch.

        m = beta1 * m + (1 - beta1) * grad, and likewise v, then params -=
        lr * m_hat / (sqrt(v_hat) + eps). Every view of params stays
        valid, and a (P, size) population allocates one temporary: once
        the v update has read grad for the last time, grad holds the step.
        """
        self.t += 1
        tmp = (1 - self.beta1) * grad
        self.m *= self.beta1
        self.m += tmp
        self.v *= self.beta2
        np.multiply(1 - self.beta2, grad, out=tmp)
        tmp *= grad
        self.v += tmp
        step = np.divide(self.m, 1 - self.beta1 ** self.t, out=grad)
        step *= self.lr
        denom = np.divide(self.v, 1 - self.beta2 ** self.t, out=tmp)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        return np.subtract(params, step, out=params)


def _clip_rows(grad: np.ndarray, limit: float) -> None:
    """Scale each row of grad whose norm exceeds limit down to that norm,
    in place. A row within the limit is multiplied by 1.0, which leaves
    every value as it is."""
    # np.linalg.norm of a vector is the square root of its dot
    norms = np.sqrt(_row_dots(grad, grad))
    grad *= np.divide(limit, norms, out=np.ones_like(norms),
                      where=norms > limit)[:, None]


class _Shape:
    """The rows of a ``_Learners`` population that share one ``hidden``:
    a policy supplying the shapes, the rows' stacked parameters, views
    of each field split once, and Adam state. Adam updates ``params`` in
    place, so the views stay current."""

    def __init__(self, rows: slice, policies: Sequence[GaussianPolicy],
                 configs: Sequence[TrainConfig]):
        self.rows = rows
        self.template = policies[0]
        self.params = np.stack([p.get_flat() for p in policies])
        self.fields = self.template._unflatten(self.params)
        self.adam = Adam(self.params.shape,
                         np.array([[c.learning_rate] for c in configs]))


class _Learners:
    """P A2C learners that share every TrainConfig field but the seed,
    the learning rate and ``hidden``. Row p holds the policy, Adam state
    and sampling stream of configs[p]. Each run of
    rows with one ``hidden`` is a ``_Shape`` whose network math runs
    stacked; the action noise, the finiteness check and the rollout
    buffers cover every row at once."""

    def __init__(self, obs_dim: int, action_dim: int,
                 configs: Sequence[TrainConfig]):
        self.configs = configs
        self.config = configs[0]
        self.obs_dim, self.action_dim = obs_dim, action_dim
        self.shapes = []
        start = 0
        for hidden, run in itertools.groupby(configs, lambda c: c.hidden):
            run = list(run)
            self.shapes.append(_Shape(
                slice(start, start + len(run)),
                [GaussianPolicy(obs_dim, action_dim, hidden, c.seed)
                 for c in run], run))
            start += len(run)
        self.rngs = [np.random.default_rng(c.seed) for c in configs]
        self.obs_scale = np.ones((len(configs), obs_dim))
        self.failed: list[TrainingError | None] = [None] * len(configs)

    def begin_rollout(self) -> None:
        """Clear the rollout buffers and draw each row's action noise,
        std * N(0, 1), for the rollout's steps. One (R, action_dim) draw
        gives the values of R draws of (action_dim,), in order, and std
        only changes in ``update``."""
        P, R = len(self.configs), self.config.rollout_steps
        self.batch_obs = np.empty((P, R, self.obs_dim))
        self.batch_act = np.empty((P, R, self.action_dim))
        self.batch_rew, self.batch_val = np.empty((P, R)), np.empty((P, R))
        self.batch_done = np.empty((P, R), dtype=bool)
        std = np.empty((P, self.action_dim))
        for s in self.shapes:
            np.exp(s.fields["log_std"], out=std[s.rows])
        self.noise = std * np.stack([rng.standard_normal((R, self.action_dim))
                                     for rng in self.rngs], axis=1)

    def _forward(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Action means and values of every row on its (obs_dim,)
        observation, one stacked forward per shape."""
        P = len(self.configs)
        mean, value = np.empty((P, self.action_dim)), np.empty(P)
        for s in self.shapes:
            m, v, _ = s.template.forward_population(
                obs[s.rows, None, :], s.fields, self.obs_scale[s.rows])
            mean[s.rows], value[s.rows] = m[:, 0, :], v[:, 0]
        return mean, value

    def sample(self, obs: np.ndarray, i: int, step: int):
        """Actions and values of every row on its (obs_dim,) observation,
        with the noise drawn for rollout step i.

        A row whose action is not finite fails at this step. Rows never
        mix, so a failed row can go on stepping without touching the
        others.
        """
        actions, values = self._forward(obs)
        actions += self.noise[i]
        finite = np.isfinite(actions)
        if not finite.all():
            for p in np.flatnonzero(~finite.all(axis=1)):
                self._fail(p, f"non-finite action at step {step}; try a "
                              f"smaller learning rate")
        return actions, values

    def record(self, i: int, obs, actions, rewards, values, dones) -> None:
        """Store rollout step i of every row."""
        self.batch_obs[:, i], self.batch_act[:, i] = obs, actions
        self.batch_rew[:, i], self.batch_val[:, i] = rewards, values
        self.batch_done[:, i] = dones

    def _fail(self, p: int, reason: str) -> None:
        if self.failed[p] is None:
            self.failed[p] = TrainingError(reason)

    def update(self, next_obs: np.ndarray, steps_done: int) -> None:
        """One A2C update of every row from its recorded rollout.

        n-step returns bootstrap from the value of next_obs unless the
        rollout ended an episode; advantages are normalized per row. The
        loss, gradient clip and Adam step run per shape.
        """
        c = self.config
        obs, actions, rewards, dones, values = (
            self.batch_obs, self.batch_act, self.batch_rew, self.batch_done,
            self.batch_val)
        _, v_last = self._forward(next_obs)
        acc = np.where(dones[:, -1], 0.0, v_last)
        returns = np.empty(rewards.shape)
        for i in range(rewards.shape[1] - 1, -1, -1):
            acc = rewards[:, i] + c.gamma * np.where(dones[:, i], 0.0, acc)
            returns[:, i] = acc
        advantages = returns - values
        adv_std = advantages.std(axis=1)
        scaled = adv_std > 1e-12
        advantages = np.where(
            scaled[:, None],
            (advantages - advantages.mean(axis=1)[:, None])
            / np.where(scaled, adv_std, 1.0)[:, None],
            advantages)
        for s in self.shapes:
            r = s.rows
            loss, grad = _stacked_loss_and_grad(
                s.template, s.params, self.obs_scale[r], obs[r], actions[r],
                returns[r], advantages[r], c.entropy_coef, c.vf_coef)
            for p in np.flatnonzero(~(np.isfinite(loss)
                                      & np.isfinite(grad).all(axis=1))):
                self._fail(r.start + p,
                           f"non-finite loss/gradient at step {steps_done} "
                           f"(loss={float(loss[p])!r}); try a smaller "
                           f"learning rate")
            if c.grad_clip > 0:
                _clip_rows(grad, c.grad_clip)
            s.adam.step(s.params, grad)

    def outcomes(self) -> list[GaussianPolicy | TrainingError]:
        out = []
        for s in self.shapes:
            t = s.template
            for p, row in enumerate(s.params, s.rows.start):
                if self.failed[p] is not None:
                    out.append(self.failed[p])
                    continue
                policy = GaussianPolicy(t.obs_dim, t.action_dim, t.hidden,
                                        self.configs[p].seed,
                                        obs_scale=self.obs_scale[p].copy())
                policy.set_flat(row)
                out.append(policy)
        return out


def _train_lockstep(envs, configs) -> list[GaussianPolicy | TrainingError]:
    """A2C on each (envs[p], configs[p]), all rows in lockstep.

    Each row rolls out `rollout_steps` transitions on its env (restarting
    it at episode ends), bootstraps n-step returns from the value head,
    normalizes advantages per rollout, and applies Adam with
    gradient-norm clipping; its observation scale is frozen from its
    first state. The configs agree in every field but the seed, the
    learning rate and ``hidden``, and the envs form one ``EnvPopulation``,
    stepped once per rollout step for every row whatever its network
    shape. A row whose action, loss or gradient turns non-finite fails
    with a TrainingError naming the step; the others carry on unchanged.
    """
    population = EnvPopulation(envs)
    env = population.env
    with np.errstate(all="ignore"):
        rows = _Learners(env.observation_dim, env.action_dim, configs)
        obs = population.observations()
        rows.obs_scale = np.maximum(1.0, np.abs(obs))
        steps_done = 0
        while (steps_done < rows.config.steps
               and any(f is None for f in rows.failed)):
            rows.begin_rollout()
            for i in range(rows.config.rollout_steps):
                steps_done += 1
                actions, values = rows.sample(obs, i, steps_done)
                rewards, dones = population.step(actions)
                rows.record(i, obs, actions, rewards, values, dones)
                obs = population.observations()
            rows.update(obs, steps_done)
    return rows.outcomes()


def train_a2c_all(jobs: Sequence[tuple]) -> list[GaussianPolicy | TrainingError]:
    """Train (env, TrainConfig) jobs: one policy or TrainingError per job.

    Jobs whose configs agree in every field but the seed, the learning
    rate and ``hidden`` train in lockstep populations of at most
    ``LOCKSTEP_ROWS`` rows, so their envs must form an
    ``EnvPopulation``; the rows of each ``hidden`` value run their
    network math as one stacked block. Each outcome is that of the job
    trained alone, bit for bit, and is reproducible from (seed, config,
    data).
    """
    groups: dict[tuple, list[int]] = {}
    outcomes: list = [None] * len(jobs)
    for k, (env, config) in enumerate(jobs):
        try:  # a job whose network cannot be built fails alone
            check_policy_sizes(env.observation_dim, env.action_dim,
                               config.hidden)
        except TrainingError as exc:
            outcomes[k] = exc
            continue
        key = tuple(getattr(config, f.name)
                    for f in dataclasses.fields(config)
                    if f.name not in ("seed", "learning_rate", "hidden"))
        groups.setdefault(key, []).append(k)
    for members in groups.values():
        # rows of one shape side by side: one block per shape and chunk
        members.sort(key=lambda k: jobs[k][1].hidden)
        for rows in np.array_split(members, -(-len(members) // LOCKSTEP_ROWS)):
            fitted = _train_lockstep([jobs[k][0] for k in rows],
                                     [jobs[k][1] for k in rows])
            for k, outcome in zip(rows, fitted):
                outcomes[k] = outcome
    return outcomes


def train_a2c(env, config: TrainConfig) -> GaussianPolicy:
    """Train a Gaussian policy on a market environment: ``train_a2c_all``
    on one job. A non-finite action, loss or gradient raises
    TrainingError naming the step."""
    outcome = train_a2c_all([(env, config)])[0]
    if isinstance(outcome, TrainingError):
        raise outcome
    return outcome
