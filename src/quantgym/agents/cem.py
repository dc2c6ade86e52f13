"""Cross-entropy method: derivative-free policy search.

``cem_optimize`` runs one search over any population objective.
``train_cem_all`` fits many (env, config) jobs, scoring the populations
of the jobs that share their market data, network shape and search
settings in one lockstep rollout per generation; every job's policy
equals ``train_cem`` on its own env and config, bit for bit. Both run
the same ask/tell ``_Search``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..envs import population_returns
from ..errors import TrainingError
from .policy import GaussianPolicy, TrainConfig

# Rows per lockstep rollout: whole jobs, three default populations. A
# rollout step's cost is mostly per-ticker fill work shared by every
# row, while its arrays grow with each row. A job with a larger
# population runs alone.
CEM_LOCKSTEP_ROWS = 72


def _check_search(iterations: int, population: int, elite_frac: float):
    if iterations < 1:
        raise TrainingError("iterations must be at least 1")
    if population < 2:
        raise TrainingError("population must be at least 2")
    if not 0.0 < elite_frac <= 1.0:
        raise TrainingError("elite_frac must lie in (0, 1]")


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
    """``train_cem`` on each job; every generation scores all live jobs'
    populations in one ``population_returns`` rollout. The jobs share
    their market data, network shape and search settings; a job whose
    actions or objective turn non-finite fails alone."""
    config = jobs[0][1]
    P = config.population
    policies = [GaussianPolicy(env.observation_dim, env.action_dim,
                               c.hidden, c.seed) for env, c in jobs]
    scales = np.stack([np.maximum(1.0, np.abs(env.reset().observation()))
                       for env, _ in jobs])
    searches = [_Search(p.n_parameters, P, c.elite_frac, c.seed,
                        init_mean=p.get_flat(), init_std=0.5)
                for p, (_, c) in zip(policies, jobs)]
    failed: list[TrainingError | None] = [None] * len(jobs)
    template = policies[0]
    buffer = np.empty((len(jobs) * P, template.n_parameters))
    for generation in range(1, config.iterations + 1):
        live = [j for j, f in enumerate(failed) if f is None]
        if not live:
            break
        samples = buffer[:len(live) * P]
        for i, j in enumerate(live):
            searches[j].ask(samples[i * P:(i + 1) * P])
        scale = np.repeat(scales[live], P, axis=0)
        scores, finite = population_returns(
            [jobs[j][0] for j in live for _ in range(P)],
            lambda obs: template.forward_population(
                obs[:, None, :], samples, scale)[0][:, 0, :])
        for i, j in enumerate(live):
            rows = slice(i * P, (i + 1) * P)
            if not finite[rows].all():
                failed[j] = TrainingError(
                    f"non-finite action in CEM generation {generation}")
                continue
            try:
                searches[j].tell(scores[rows])
            except TrainingError as exc:
                failed[j] = exc
    out: list[GaussianPolicy | TrainingError] = []
    for policy, scale_j, search, failure in zip(policies, scales, searches,
                                                failed):
        if failure is None:
            policy.obs_scale = scale_j.copy()
            policy.set_flat(search.mean)
        out.append(policy if failure is None else failure)
    return out


def train_cem_all(jobs: Sequence[tuple]) -> list[GaussianPolicy | TrainingError]:
    """Fit (env, TrainConfig) jobs: one policy or TrainingError per job.

    Jobs whose envs share class and market data (as ``EnvPopulation``
    requires) and whose configs share ``hidden``, ``population``,
    ``iterations`` and ``elite_frac`` run their generations in lockstep,
    in chunks of whole jobs of at most ``CEM_LOCKSTEP_ROWS`` rows. Each
    outcome equals ``train_cem`` on that job alone, bit for bit.
    """
    groups: dict[tuple, list[int]] = {}
    for k, (env, c) in enumerate(jobs):
        key = (type(env), id(env.table), id(env.features),
               id(env.risk_series), env.config, c.hidden, c.population,
               c.iterations, c.elite_frac)
        groups.setdefault(key, []).append(k)
    outcomes: list = [None] * len(jobs)
    with np.errstate(all="ignore"):
        for members in groups.values():
            c = jobs[members[0]][1]
            try:
                _check_search(c.iterations, c.population, c.elite_frac)
                per_chunk = max(1, CEM_LOCKSTEP_ROWS // c.population)
                for chunk in np.array_split(
                        members, -(-len(members) // per_chunk)):
                    fitted = _train_chunk([jobs[k] for k in chunk])
                    for k, outcome in zip(chunk, fitted):
                        outcomes[k] = outcome
            except TrainingError as exc:  # a search setting or network size
                for k in members:
                    outcomes[k] = exc
    return outcomes


def train_cem(env, config: TrainConfig) -> GaussianPolicy:
    """Fit a Gaussian policy by maximizing deterministic episode return:
    ``train_cem_all`` on one job."""
    outcome = train_cem_all([(env, config)])[0]
    if isinstance(outcome, TrainingError):
        raise outcome
    return outcome
