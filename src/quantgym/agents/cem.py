"""Cross-entropy method: derivative-free policy search.

``cem_optimize`` runs one search over any population objective.
``train_cem_all`` hands its jobs to ``train_in_lockstep``, ``population``
rows each; a chunk scores every job's population in one lockstep rollout
per generation, one ``StackedNet`` trunk and mean head per network shape
(the search reads the action means only, so no value head runs), and each
job's policy equals ``train_cem`` on that job alone, bit for bit. Both
run the same ask/tell ``_Search``.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ..config import check_domain
from ..envs import population_returns
from ..errors import TrainingError, unwrap
from .policy import GaussianPolicy, StackedNet, TrainConfig, train_in_lockstep

# Rows per lockstep rollout: whole jobs, three default populations. A
# rollout step's cost is mostly per-ticker fill work shared by every
# row, while its arrays grow with each row. A job with a larger
# population runs alone.
CEM_LOCKSTEP_ROWS = 72


def _check_search(iterations: int, population: int, elite_frac: float):
    """The population, once the search settings lie in their domains."""
    for key, value in (("iterations", iterations), ("population", population),
                       ("elite_frac", elite_frac)):
        check_domain("agent", key, value, TrainingError)
    return population


class _Search:
    """One CEM search, a round at a time: ``ask`` samples a Gaussian
    population into a (population, dim) array, ``tell`` refits the
    mean/std to the top elite_frac fraction of its scores (at least one
    sample; with elite_frac=1 the refit is the plain population mean,
    i.e. no selection pressure)."""

    def __init__(self, dim: int, population: int, elite_frac: float,
                 seed: int, init_mean: np.ndarray | None = None,
                 init_std: float = 1.0, std_floor: float = 1e-3):
        self.rng = np.random.default_rng(seed)
        self.mean = (np.zeros(dim) if init_mean is None
                     else np.asarray(init_mean, float))
        self.std = np.full(dim, float(init_std))
        self.std_floor = std_floor
        self.population = population
        self.n_elite = max(1, int(round(population * elite_frac)))
        # read by cem_optimize, for the benchmark's agents.cem.generation hook
        self.history: list[float] = []

    def ask(self, out: np.ndarray) -> None:
        # the values of mean + std * rng.standard_normal((population, dim))
        self.rng.standard_normal(out=out)
        out *= self.std
        out += self.mean
        self.samples = out

    def tell(self, scores) -> None:
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (self.population,):
            raise TrainingError(f"objective returned shape {scores.shape}, "
                                f"expected ({self.population},)")
        if not np.isfinite(scores).all():
            raise TrainingError("non-finite objective value during CEM search")
        elite_idx = np.argsort(-scores, kind="stable")[:self.n_elite]
        elites = self.samples[elite_idx]
        self.mean = elites.mean(axis=0)
        self.std = np.maximum(elites.std(axis=0), self.std_floor)
        self.history.append(float(scores[elite_idx[0]]))


# kept for the benchmark's agents.cem.generation hook; no trainer calls it
def cem_optimize(objective, dim: int, iterations: int, population: int,
                 elite_frac: float, seed: int = 0,
                 init_mean: np.ndarray | None = None,
                 init_std: float = 1.0,
                 std_floor: float = 1e-3) -> tuple[np.ndarray, list[float]]:
    """Maximize `objective` over R^dim by iterated elite refitting.

    `objective` scores a whole population at once: it maps a
    (population, dim) array of samples to (population,) scores. Each
    round samples a Gaussian population, scores it, and refits the
    mean/std to its elites. Returns the final mean and per-round best
    scores.
    """
    _check_search(iterations, population, elite_frac)
    search = _Search(dim, population, elite_frac, seed, init_mean, init_std,
                     std_floor)
    for _ in range(iterations):
        samples = np.empty((population, dim))
        search.ask(samples)
        search.tell(objective(samples))
    return search.mean, search.history


def _train_chunk(jobs) -> list[GaussianPolicy | TrainingError]:
    """``train_cem`` on each job; every generation scores all jobs'
    populations in one ``population_returns`` rollout, job j on rows
    j*P to (j+1)*P - 1. Each run of jobs with one ``hidden`` samples into
    its own block, read by one ``StackedNet``, which writes the block's
    action means. A job whose actions or objective turn non-finite fails
    alone: its rows step on, and nothing reads them."""
    config = jobs[0][1]
    P = config.population
    policies = [GaussianPolicy(env.observation_dim, env.action_dim,
                               c.hidden, c.seed) for env, c in jobs]
    scales = np.stack([np.maximum(1.0, np.abs(env.reset().observation()))
                       for env, _ in jobs])
    searches = [_Search(p.n_parameters, P, c.elite_frac, c.seed,
                        init_mean=p.get_flat(), init_std=0.5)
                for p, (_, c) in zip(policies, jobs)]
    # per hidden: (rows, net); per job: its sample rows
    blocks, job_samples = [], []
    for _, run in itertools.groupby(policies, lambda p: p.hidden):
        run = list(run)
        block = np.empty((len(run) * P, run[0].n_parameters))
        start = len(job_samples) * P
        blocks.append((slice(start, start + len(block)),
                       StackedNet(run[0], block)))
        job_samples += np.split(block, len(run))
    envs = [env for env, _ in jobs for _ in range(P)]
    scale = np.repeat(scales, P, axis=0)

    def act(obs):
        actions = np.empty((len(envs), policies[0].action_dim))
        x = (obs / scale)[:, None, :]
        for rows, net in blocks:
            net.mean(net.trunk(x[rows]), out=actions[rows, None])
        return actions

    failed: list[TrainingError | None] = [None] * len(jobs)
    for generation in range(1, config.iterations + 1):
        live = [j for j, f in enumerate(failed) if f is None]
        if not live:
            break
        for j in live:
            searches[j].ask(job_samples[j])
        scores, finite = population_returns(envs, act)
        for j in live:
            rows = slice(j * P, (j + 1) * P)
            if not finite[rows].all():
                failed[j] = TrainingError(
                    f"non-finite action in CEM generation {generation}")
                continue
            try:
                searches[j].tell(scores[rows])
            except TrainingError as exc:
                failed[j] = exc
    for policy, scale_j, search in zip(policies, scales, searches):
        policy.obs_scale = scale_j.copy()
        policy.set_flat(search.mean)
    return [p if f is None else f for p, f in zip(policies, failed)]


def train_cem_all(jobs: Sequence[tuple]) -> list[GaussianPolicy | TrainingError]:
    """Fit (env, TrainConfig) jobs: one policy or TrainingError per job.

    ``train_in_lockstep`` with ``population`` rows per job: jobs whose
    envs have one ``population_key`` and whose configs share
    ``population``, ``iterations`` and ``elite_frac`` run their
    generations in lockstep, in chunks of at most ``CEM_LOCKSTEP_ROWS``
    rows, whatever their ``hidden``. Each outcome equals ``train_cem`` on
    that job alone, bit for bit.
    """
    return train_in_lockstep(
        jobs, _train_chunk, ("population", "iterations", "elite_frac"),
        lambda c: _check_search(c.iterations, c.population, c.elite_frac),
        CEM_LOCKSTEP_ROWS)


def train_cem(env, config: TrainConfig) -> GaussianPolicy:
    """Fit a Gaussian policy by maximizing deterministic episode return:
    ``train_cem_all`` on one job."""
    return unwrap(train_cem_all([(env, config)])[0])
