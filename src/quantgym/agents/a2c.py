"""Synchronous advantage actor-critic trained with numpy backprop.

``train_a2c_all`` hands its jobs to ``train_in_lockstep``, one row each.
A chunk trains as one lockstep population over an ``EnvPopulation``: one
env step per rollout step for all rows, whatever their network shapes,
and one stacked forward, loss and Adam step per shape. The ``_Learners``
rows sample, update and check for divergence, filling rollout buffers
allocated once per chunk; the gradient-clip norms double as the
finiteness check. ``train_a2c`` is its case of one job.
"""
from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from typing import Sequence

import numpy as np

from ..envs import EnvPopulation, _row_dots
from ..errors import TrainingError, unwrap
from .policy import GaussianPolicy, TrainConfig, train_in_lockstep

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
                           x: np.ndarray, actions: np.ndarray,
                           returns: np.ndarray, advantages: np.ndarray,
                           entropy_coef: float,
                           vf_coef: float) -> tuple[np.ndarray, np.ndarray]:
    """``a2c_loss_and_grad`` of P parameter rows, each on its own batch.

    params is (P, n_parameters), x (P, B, obs_dim) the observations
    divided by their rows' scales, actions (P, B, action_dim), returns
    and advantages (P, B); ``policy`` only supplies the shapes. Returns
    the (P,) losses and the (P, n_parameters) gradients.
    """
    B = x.shape[1]
    f = policy._unflatten(params)
    mean, value, h = policy.forward_scaled(x, f)
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
    np.matmul(dmean.transpose(0, 2, 1), h, out=g["W2"])
    dmean.sum(axis=1, out=g["b2"])
    g["wv"][...] = (h.transpose(0, 2, 1) @ dvalue[:, :, None])[:, :, 0]
    dvalue.sum(axis=1, out=g["bv"])
    del dh, dmean, h
    np.matmul(dz1.transpose(0, 2, 1), x, out=g["W1"])
    dz1.sum(axis=1, out=g["b1"])
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
        policy, policy.get_flat()[None],
        (np.atleast_2d(np.asarray(obs, dtype=float)) / policy.obs_scale)[None],
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


def _clip_rows(grad: np.ndarray, limit: float) -> np.ndarray:
    """Scale each row of grad whose norm exceeds limit down to that norm,
    in place, and return the (P,) norms of the rows before the clip. A
    row within the limit is multiplied by 1.0, which leaves every value
    as it is; a row whose norm overflows to inf is scaled to zeros."""
    # np.linalg.norm of a vector is the square root of its dot
    norms = np.sqrt(_row_dots(grad, grad))
    grad *= np.divide(limit, norms, out=np.ones_like(norms),
                      where=norms > limit)[:, None]
    return norms


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
    buffers cover every row at once. The buffers and the noise block are
    allocated once and refilled in place by every rollout: ``sample``
    writes each step's scaled observations, actions and values, and
    ``record`` its rewards and episode ends."""

    def __init__(self, obs_dim: int, action_dim: int,
                 configs: Sequence[TrainConfig]):
        self.configs = configs
        self.config = configs[0]
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
        P, R = len(configs), self.config.rollout_steps
        self.batch_obs = np.empty((P, R, obs_dim))  # divided by obs_scale
        self.batch_act = np.empty((P, R, action_dim))
        self.batch_rew, self.batch_val = np.empty((P, R)), np.empty((P, R))
        self.batch_done = np.empty((P, R), dtype=bool)
        self.noise = np.empty((P, R, action_dim))

    def begin_rollout(self) -> None:
        """Draw each row's action noise, std * N(0, 1), for the rollout's
        steps. One (R, action_dim) draw gives the values of R draws of
        (action_dim,), in order, and std only changes in ``update``."""
        for rng, block in zip(self.rngs, self.noise):
            rng.standard_normal(out=block)
        for s in self.shapes:
            self.noise[s.rows] *= np.exp(s.fields["log_std"])[:, None, :]

    def _forward(self, x: np.ndarray, mean: np.ndarray,
                 value: np.ndarray) -> None:
        """Write the action means and values of every row on its
        (obs_dim,) scaled observation x into mean and value, one stacked
        forward per shape."""
        for s in self.shapes:
            m, v, _ = s.template.forward_scaled(x[s.rows, None, :], s.fields)
            mean[s.rows], value[s.rows] = m[:, 0, :], v[:, 0]

    def sample(self, obs: np.ndarray, i: int, step: int) -> np.ndarray:
        """Actions of every row on its (obs_dim,) observation, with the
        noise drawn for rollout step i; the scaled observations, the
        actions and the values are stored as rollout step i.

        A row whose action is not finite fails at this step. Rows never
        mix, so a failed row can go on stepping without touching the
        others.
        """
        actions = self.batch_act[:, i]
        self._forward(np.divide(obs, self.obs_scale, out=self.batch_obs[:, i]),
                      actions, self.batch_val[:, i])
        actions += self.noise[:, i]
        finite = np.isfinite(actions)
        if not np.logical_and.reduce(finite, axis=None):
            for p in np.flatnonzero(~finite.all(axis=1)):
                self._fail(p, f"non-finite action at step {step}; try a "
                              f"smaller learning rate")
        return actions

    def record(self, i: int, rewards, dones) -> None:
        """Store the rewards and episode ends of rollout step i, whose
        observations, actions and values ``sample`` stored."""
        self.batch_rew[:, i], self.batch_done[:, i] = rewards, dones

    def _fail(self, p: int, reason: str) -> None:
        if self.failed[p] is None:
            self.failed[p] = TrainingError(reason)

    def update(self, next_obs: np.ndarray, steps_done: int) -> None:
        """One A2C update of every row from its recorded rollout.

        n-step returns bootstrap from the value of next_obs unless the
        rollout ended an episode; advantages are normalized per row. The
        loss, gradient clip and Adam step run per shape. A row fails when
        its loss or gradient is not finite: with clipping on, a finite
        loss and clip norm show every entry finite, and the entries are
        checked only when some row's test fails (an overflowing norm of
        finite entries clips the row to zeros and does not fail it).
        """
        c = self.config
        x, actions, rewards, dones = (
            self.batch_obs, self.batch_act, self.batch_rew, self.batch_done)
        acc = np.empty(len(self.configs))  # the bootstrap values first
        self._forward(next_obs / self.obs_scale,
                      np.empty(actions[:, 0].shape), acc)
        returns = np.empty(rewards.shape)
        for i in range(rewards.shape[1] - 1, -1, -1):
            np.copyto(acc, 0.0, where=dones[:, i])
            np.multiply(c.gamma, acc, out=acc)
            np.add(rewards[:, i], acc, out=acc)
            returns[:, i] = acc
        advantages = returns - self.batch_val
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
                s.template, s.params, x[r], actions[r], returns[r],
                advantages[r], c.entropy_coef, c.vf_coef)
            finite = np.isfinite(loss)
            if c.grad_clip > 0:
                finite &= np.isfinite(_clip_rows(grad, c.grad_clip))
            if c.grad_clip <= 0 or not finite.all():
                # clipping keeps each entry finite or non-finite
                finite = np.isfinite(loss) & np.isfinite(grad).all(axis=1)
                for p in np.flatnonzero(~finite):
                    self._fail(r.start + p,
                               f"non-finite loss/gradient at step "
                               f"{steps_done} (loss={float(loss[p])!r}); "
                               f"try a smaller learning rate")
            s.adam.step(s.params, grad)

    def outcomes(self) -> list[GaussianPolicy | TrainingError]:
        """Each row's TrainingError, or its trained policy: a copy of its
        shape's template holding the row's seed, observation scale and
        parameters, so no random init is drawn to be overwritten."""
        out = []
        for s in self.shapes:
            for p, row in enumerate(s.params, s.rows.start):
                if self.failed[p] is not None:
                    out.append(self.failed[p])
                    continue
                policy = copy.copy(s.template)
                policy.hyperparameters = {**policy.hyperparameters,
                                          "seed": self.configs[p].seed}
                policy.obs_scale = self.obs_scale[p].copy()
                policy.set_flat(row)
                out.append(policy)
        return out


def _train_lockstep(envs, configs) -> list[GaussianPolicy | TrainingError]:
    """A2C on each (envs[p], configs[p]), all rows in lockstep.

    Each row rolls out `rollout_steps` transitions on its env (restarting
    it at episode ends), bootstraps n-step returns from the value head,
    normalizes advantages per rollout, and applies Adam with
    gradient-norm clipping; its observation scale is frozen from its
    first state. The envs form one ``EnvPopulation``, stepped once per
    rollout step for every row whatever its network shape. A row whose
    action, loss or gradient turns non-finite fails with a TrainingError
    naming the step; the others carry on unchanged.
    """
    population = EnvPopulation(envs)
    env = population.env
    rows = _Learners(env.observation_dim, env.action_dim, configs)
    obs = population.observations()
    rows.obs_scale = np.maximum(1.0, np.abs(obs))
    steps_done = 0
    while (steps_done < rows.config.steps
           and any(f is None for f in rows.failed)):
        rows.begin_rollout()
        for i in range(rows.config.rollout_steps):
            steps_done += 1
            rewards, dones = population.step(rows.sample(obs, i, steps_done))
            rows.record(i, rewards, dones)
            obs = population.observations()
        rows.update(obs, steps_done)
    return rows.outcomes()


def train_a2c_all(jobs: Sequence[tuple]) -> list[GaussianPolicy | TrainingError]:
    """Train (env, TrainConfig) jobs: one policy or TrainingError per job.

    ``train_in_lockstep`` with one row per job: jobs whose envs have one
    ``population_key`` and whose configs agree in every field but the
    seed, the learning rate and ``hidden`` train in lockstep populations
    of at most ``LOCKSTEP_ROWS`` rows, one stacked block per ``hidden``.
    Each outcome is that of the job trained alone, bit for bit, and is
    reproducible from (seed, config, data).
    """
    return train_in_lockstep(
        jobs, lambda chunk: _train_lockstep(*zip(*chunk)),
        [f.name for f in dataclasses.fields(TrainConfig)
         if f.name not in ("seed", "learning_rate", "hidden")],
        lambda config: 1, LOCKSTEP_ROWS)


def train_a2c(env, config: TrainConfig) -> GaussianPolicy:
    """Train a Gaussian policy on a market environment: ``train_a2c_all``
    on one job. A non-finite action, loss or gradient raises
    TrainingError naming the step."""
    return unwrap(train_a2c_all([(env, config)])[0])
