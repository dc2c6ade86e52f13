"""Synchronous advantage actor-critic trained with numpy backprop.

``train_a2c_all`` hands its jobs to ``train_in_lockstep``, one row each.
A chunk trains as one lockstep population over an ``EnvPopulation``: one
env step per rollout step for all rows, whatever their network shapes,
and one ``StackedNet`` trunk and mean head per shape. The ``_Learners``
rows sample, update and check for divergence, filling rollout buffers
allocated once per chunk. Each update reads the rollout's values off
its stored activations in one product per shape, checks its actions for
finiteness once, and runs one stacked loss and Adam step per shape; the
gradient-clip norms double as the gradient's finiteness check.
``train_a2c`` is its case of one job.
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
from .policy import (GaussianPolicy, StackedNet, TrainConfig, draw_weights,
                     train_in_lockstep)

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


def _stacked_loss_and_grad(net: StackedNet, grad: np.ndarray, g: dict,
                           x: np.ndarray, actions: np.ndarray,
                           returns: np.ndarray, advantages: np.ndarray,
                           entropy_coef: float,
                           vf_coef: float) -> tuple[np.ndarray, np.ndarray]:
    """``a2c_loss_and_grad`` of the P parameter rows ``net`` reads, each
    on its own batch.

    x is (P, B, obs_dim), the observations divided by their rows'
    scales, actions (P, B, action_dim), returns and advantages (P, B).
    The (P, n_parameters) gradients are written into grad, whose field
    views are g. Returns the (P,) losses and grad.
    """
    B = x.shape[1]
    f = net.fields
    mean, value, h = net.forward(x)
    log_std = f["log_std"]
    action_dim = log_std.shape[1]
    std = np.exp(log_std)[:, None, :]

    diff = actions - mean
    z = diff / std
    zz = z * z
    logp = -0.5 * zz.sum(axis=2) - log_std.sum(axis=1)[:, None] \
        - 0.5 * action_dim * LOG_2PI
    entropy = log_std.sum(axis=1) + 0.5 * action_dim * (LOG_2PI + 1.0)

    policy_loss = -(logp * advantages).mean(axis=1)
    value_err = value - returns
    value_loss = (value_err * value_err).mean(axis=1)
    loss = policy_loss + vf_coef * value_loss - entropy_coef * entropy

    # backward pass, each part written into the gradient as soon as it
    # exists
    dmean = (-advantages[:, :, None] / B) * (diff / (std * std))
    g["log_std"][...] = (-1.0 / B) * (advantages[:, :, None] * (
        zz - 1.0)).sum(axis=1) - entropy_coef
    dvalue = vf_coef * 2.0 * value_err / B
    dh = dmean @ f["W2"] + dvalue[:, :, None] * f["wv"][:, None, :]
    np.matmul(dmean.transpose(0, 2, 1), h, out=g["W2"])
    dmean.sum(axis=1, out=g["b2"])
    g["wv"][...] = (h.transpose(0, 2, 1) @ dvalue[:, :, None])[:, :, 0]
    dvalue.sum(axis=1, out=g["bv"])
    # the tanh derivative 1 - h * h, in place, once h is read
    np.multiply(h, h, out=h)
    np.subtract(1.0, h, out=h)
    dh *= h
    np.matmul(dh.transpose(0, 2, 1), x, out=g["W1"])
    dh.sum(axis=1, out=g["b1"])
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
    grad = np.empty((1, policy.n_parameters))
    loss, grad = _stacked_loss_and_grad(
        StackedNet(policy, policy.get_flat()[None]), grad,
        policy._unflatten(grad),
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
    a policy supplying the shapes, the rows' stacked parameters and the
    ``StackedNet`` reading them, a gradient block with its field views,
    one rollout's hidden activations, and Adam state. The parameters and
    gradient are split once: Adam updates ``params`` in place and the
    loss refills ``grad``, so every view stays current."""

    def __init__(self, rows: slice, template: GaussianPolicy,
                 configs: Sequence[TrainConfig], rollout_steps: int):
        self.rows = rows
        self.template = template
        # each row starts as GaussianPolicy(..., seed) would, with no
        # policy built per row
        self.params = np.empty((len(configs), template.n_parameters))
        self.params[...] = template.get_flat()
        self.net = StackedNet(template, self.params)
        for k, c in enumerate(configs):
            draw_weights(c.seed, [self.net.fields[name][k]
                                  for name in ("W1", "W2", "wv")])
        self.grad = np.empty_like(self.params)
        self.grad_fields = template._unflatten(self.grad)
        # rollout step i's (rows, 1, hidden) activations at [i], whole,
        # so the bias and tanh run on one contiguous block
        self.activations = np.empty((rollout_steps, len(configs), 1,
                                     template.hidden))
        self.adam = Adam(self.params.shape,
                         np.array([[c.learning_rate] for c in configs]))


class _Learners:
    """P A2C learners that share every TrainConfig field but the seed,
    the learning rate and ``hidden``. Row p holds the policy, Adam state
    and sampling stream of configs[p]. Each run of rows with one
    ``hidden`` is a ``_Shape`` whose network math runs stacked; the
    action noise and the rollout buffers cover every row at once. The
    buffers and the noise block are allocated once and refilled in place
    by every rollout: ``sample`` writes each step's scaled observations,
    actions and hidden activations, and ``record`` its rewards and
    episode ends. The values and the finiteness check of the actions
    wait for ``update``, which runs them over the whole rollout."""

    def __init__(self, obs_dim: int, action_dim: int,
                 configs: Sequence[TrainConfig]):
        self.configs = configs
        self.config = configs[0]
        P, R = len(configs), self.config.rollout_steps
        self.shapes = []
        start = 0
        for hidden, run in itertools.groupby(configs, lambda c: c.hidden):
            run = list(run)
            self.shapes.append(_Shape(
                slice(start, start + len(run)),
                GaussianPolicy(obs_dim, action_dim, hidden, run[0].seed),
                run, R))
            start += len(run)
        self.rngs = [np.random.default_rng(c.seed) for c in configs]
        self.obs_scale = np.ones((P, obs_dim))
        self.failed: list[TrainingError | None] = [None] * P
        # step-major, so each step writes whole blocks; the observations
        # are divided by obs_scale
        self.batch_obs = np.empty((R, P, obs_dim))
        self.batch_act = np.empty((R, P, action_dim))
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
            self.noise[s.rows] *= np.exp(s.net.fields["log_std"])[:, None, :]

    def sample(self, obs: np.ndarray, i: int) -> np.ndarray:
        """Actions of every row on its (obs_dim,) observation, with the
        noise drawn for rollout step i; the scaled observations, the
        hidden activations and the actions are stored as rollout step i.

        Each shape writes its trunk into its activation buffer and its
        means into the action buffer, with no value head: ``update``
        reads the values off the stored activations. A non-finite action
        fails its row there. Rows never mix, so a failed row can go on
        stepping without touching the others.
        """
        x = np.divide(obs, self.obs_scale, out=self.batch_obs[i])
        for s in self.shapes:
            h = s.net.trunk(x[s.rows, None], out=s.activations[i])
            s.net.mean(h, out=self.batch_act[i, s.rows, None])
        actions = self.batch_act[i]
        actions += self.noise[:, i]
        return actions

    def record(self, i: int, rewards, dones) -> None:
        """Store the rewards and episode ends of rollout step i, whose
        observations, activations and actions ``sample`` stored."""
        self.batch_rew[:, i], self.batch_done[:, i] = rewards, dones

    def _fail(self, p: int, reason: str) -> None:
        if self.failed[p] is None:
            self.failed[p] = TrainingError(reason)

    def update(self, next_obs: np.ndarray, steps_done: int) -> None:
        """One A2C update of every row from its recorded rollout.

        A row whose action at some rollout step is not finite fails
        first, naming that step, as it would have when sampling. The
        rollout's values come from one stacked product per shape over
        the stored activations, one dot per row and step as the rollout
        would have run. n-step returns bootstrap from the value of
        next_obs unless the rollout ended an episode; advantages are
        normalized per row. The loss, gradient clip and Adam step run
        per shape. A row fails when its loss or gradient is not finite:
        with clipping on, a finite loss and clip norm show every entry
        finite, and the entries are checked only when some row's test
        fails (an overflowing norm of finite entries clips the row to
        zeros and does not fail it).
        """
        c = self.config
        # (P, R, ...) views of the step-major buffers
        x = self.batch_obs.transpose(1, 0, 2)
        actions = self.batch_act.transpose(1, 0, 2)
        rewards, dones = self.batch_rew, self.batch_done
        R = rewards.shape[1]
        bad = ~np.isfinite(actions).all(axis=2)  # (P, R)
        for p in np.flatnonzero(bad.any(axis=1)):
            self._fail(p, f"non-finite action at step "
                          f"{steps_done - R + 1 + int(bad[p].argmax())}; "
                          f"try a smaller learning rate")
        acc = np.empty(len(self.configs))  # the bootstrap values first
        bootstrap = next_obs / self.obs_scale
        for s in self.shapes:
            h = s.net.trunk(bootstrap[s.rows, None])
            acc[s.rows] = s.net.value(h)[:, 0]
            self.batch_val[s.rows] = s.net.value(s.activations)[:, :, 0].T
        returns, discounted = np.empty(rewards.shape), np.empty(acc.shape)
        for i in range(R - 1, -1, -1):
            np.multiply(c.gamma, acc, out=discounted)
            np.copyto(discounted, 0.0, where=dones[:, i])
            acc = np.add(rewards[:, i], discounted, out=returns[:, i])
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
                s.net, s.grad, s.grad_fields, x[r], actions[r], returns[r],
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
            rewards, dones = population.step(rows.sample(obs, i))
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
