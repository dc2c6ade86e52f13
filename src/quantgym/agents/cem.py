"""Cross-entropy method: derivative-free policy search."""
from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .policy import GaussianPolicy, TrainConfig


def cem_optimize(objective, dim: int, iterations: int, population: int,
                 elite_frac: float, seed: int = 0,
                 init_mean: np.ndarray | None = None,
                 init_std: float = 1.0,
                 std_floor: float = 1e-3) -> tuple[np.ndarray, list[float]]:
    """Maximize `objective` over R^dim by iterated elite refitting.

    `objective` scores a whole population at once: it maps a
    (population, dim) array of samples to (population,) scores. Each
    round samples a Gaussian population, scores it, and refits the
    mean/std to the top elite_frac fraction (at least one sample; with
    elite_frac=1 the refit is the plain population mean, i.e. no
    selection pressure). Returns the final mean and per-round best
    scores.
    """
    if population < 2:
        raise TrainingError("population must be at least 2")
    if not 0.0 < elite_frac <= 1.0:
        raise TrainingError("elite_frac must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mean = np.zeros(dim) if init_mean is None else np.asarray(init_mean, float)
    std = np.full(dim, float(init_std))
    n_elite = max(1, int(round(population * elite_frac)))
    history: list[float] = []
    for _ in range(iterations):
        samples = mean + std * rng.standard_normal((population, dim))
        scores = np.asarray(objective(samples), dtype=float)
        if scores.shape != (population,):
            raise TrainingError(f"objective returned shape {scores.shape}, "
                                f"expected ({population},)")
        if not np.isfinite(scores).all():
            raise TrainingError("non-finite objective value during CEM search")
        elite_idx = np.argsort(-scores, kind="stable")[:n_elite]
        elites = samples[elite_idx]
        mean = elites.mean(axis=0)
        std = np.maximum(elites.std(axis=0), std_floor)
        history.append(float(scores[elite_idx[0]]))
    return mean, history


def train_cem(env, config: TrainConfig) -> GaussianPolicy:
    """Fit a Gaussian policy by maximizing deterministic episode return."""
    policy = GaussianPolicy(env.observation_dim, env.action_dim,
                            config.hidden, config.seed)
    state = env.reset()
    policy.obs_scale = np.maximum(1.0, np.abs(state.observation()))

    def objective(samples: np.ndarray) -> np.ndarray:
        return env.episode_returns(
            lambda obs: policy.act_population(obs, samples), len(samples))

    best, _history = cem_optimize(
        objective, policy.n_parameters, config.iterations, config.population,
        config.elite_frac, seed=config.seed,
        init_mean=policy.get_flat(), init_std=0.5)
    policy.set_flat(best)
    return policy
