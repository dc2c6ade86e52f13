"""Policy interface, the Gaussian MLP policy, and flat serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import check_domain
from ..envs import population_key
from ..errors import DataError, TrainingError, reading


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000  # total environment steps budget
    learning_rate: float = 3e-3
    gamma: float = 0.99  # reward discount in (0, 1]
    rollout_steps: int = 32
    population: int = 32  # CEM population size
    elite_frac: float = 0.2
    iterations: int = 50  # CEM refit rounds
    hidden: int = 64
    entropy_coef: float = 1e-3
    vf_coef: float = 0.5
    grad_clip: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for key in ("steps", "learning_rate", "gamma", "rollout_steps"):
            check_domain("agent", key, getattr(self, key), TrainingError)


class Policy:
    """Maps observations to actions; deterministic in evaluation mode."""

    name = "policy"

    def __init__(self, hyperparameters: dict | None = None):
        self.hyperparameters = dict(hyperparameters or {})

    def begin_episode(self) -> None:
        """Hook called once per episode by backtest/training drivers."""

    def act(self, observation: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def check_policy_sizes(obs_dim: int, action_dim: int, hidden: int) -> None:
    """TrainingError unless a ``GaussianPolicy`` of these sizes can be built."""
    if min(obs_dim, action_dim, hidden) < 1:
        raise TrainingError(f"policy sizes must be positive, got obs_dim="
                            f"{obs_dim}, action_dim={action_dim}, "
                            f"hidden={hidden}")


def train_in_lockstep(jobs: Sequence[tuple], train_chunk, shared, rows_of,
                      cap: int) -> list:
    """Fit (env, TrainConfig) jobs: one policy or TrainingError per job.

    A job fails alone when ``rows_of(config)``, its row count, or
    ``check_policy_sizes`` raises. The rest group on ``population_key``,
    row count and the ``shared`` config fields; each group, sorted by
    ``hidden``, is cut into chunks of whole jobs of at most ``cap`` rows,
    and ``train_chunk`` maps a chunk's jobs to their outcomes, with
    numpy's floating-point warnings off.
    """
    outcomes: list = [None] * len(jobs)
    groups: dict[tuple, list[int]] = {}
    for k, (env, config) in enumerate(jobs):
        try:
            rows = rows_of(config)
            check_policy_sizes(env.observation_dim, env.action_dim,
                               config.hidden)
        except TrainingError as exc:
            outcomes[k] = exc
            continue
        key = (population_key(env), rows) + tuple(
            getattr(config, name) for name in shared)
        groups.setdefault(key, []).append(k)
    with np.errstate(all="ignore"):
        for (_, rows, *_), members in groups.items():
            members.sort(key=lambda k: jobs[k][1].hidden)
            per_chunk = max(1, cap // rows)
            for chunk in np.array_split(members,
                                        -(-len(members) // per_chunk)):
                fitted = train_chunk([jobs[k] for k in chunk])
                for k, outcome in zip(chunk, fitted):
                    outcomes[k] = outcome
    return outcomes


class GaussianPolicy(Policy):
    """Two-layer tanh perceptron with a state-independent log-std per
    action dimension and a value head sharing the trunk."""

    name = "gaussian"

    def __init__(self, obs_dim: int, action_dim: int, hidden: int = 64,
                 seed: int = 0, obs_scale: np.ndarray | None = None):
        super().__init__({"obs_dim": obs_dim, "action_dim": action_dim,
                          "hidden": hidden, "seed": seed})
        check_policy_sizes(obs_dim, action_dim, hidden)
        rng = np.random.default_rng(seed)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.hidden = hidden
        self.W1 = rng.normal(0.0, 1.0 / math.sqrt(obs_dim), (hidden, obs_dim))
        self.b1 = np.zeros(hidden)
        self.W2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), (action_dim, hidden))
        self.b2 = np.zeros(action_dim)
        self.log_std = np.full(action_dim, -0.5)
        self.wv = rng.normal(0.0, 1.0 / math.sqrt(hidden), hidden)
        self.bv = 0.0
        self.obs_scale = (np.ones(obs_dim) if obs_scale is None
                          else np.asarray(obs_scale, dtype=float))
        if self.obs_scale.shape != (obs_dim,):
            raise TrainingError(f"obs_scale has shape {self.obs_scale.shape}, "
                                f"expected ({obs_dim},)")
        # (field, start, stop, shape) in the flat parameter vector; bv last
        self._layout = []
        offset = 0
        for f in self._fields():
            shape = np.shape(getattr(self, f))
            self._layout.append((f, offset, offset + math.prod(shape), shape))
            offset += math.prod(shape)

    # -- parameter vector ------------------------------------------------
    def _fields(self):
        return ("W1", "b1", "W2", "b2", "log_std", "wv")

    def get_flat(self) -> np.ndarray:
        parts = [np.asarray(getattr(self, f), dtype=float).reshape(-1)
                 for f in self._fields()]
        parts.append(np.array([self.bv]))
        return np.concatenate(parts)

    def _unflatten(self, vecs: np.ndarray) -> dict:
        """Split (..., n_parameters) vectors into views shaped like each field."""
        expected = self._layout[-1][2] + 1
        if vecs.shape[-1] != expected:
            raise TrainingError(f"parameter vector has {vecs.shape[-1]} "
                                f"entries, expected {expected}")
        lead = vecs.shape[:-1]
        fields = {f: vecs[..., start:stop].reshape(lead + shape)
                  for f, start, stop, shape in self._layout}
        fields["bv"] = vecs[..., -1]
        return fields

    def set_flat(self, vec: np.ndarray) -> None:
        fields = self._unflatten(np.asarray(vec, dtype=float))
        for f in self._fields():
            setattr(self, f, fields[f].copy())
        self.bv = float(fields["bv"])

    @property
    def n_parameters(self) -> int:
        return self.get_flat().size

    # -- forward ---------------------------------------------------------
    def forward(self, obs: np.ndarray):
        """Batched forward pass: (mean, value, hidden activations)."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float)) / self.obs_scale
        h = np.tanh(obs @ self.W1.T + self.b1)
        mean = h @ self.W2.T + self.b2
        value = h @ self.wv + self.bv
        return mean, value, h

    def act(self, observation: np.ndarray) -> np.ndarray:
        mean, _, _ = self.forward(observation)
        return mean[0]

    def mean_scaled(self, x: np.ndarray, p: dict):
        """The trunk and mean head of ``forward_scaled``: (mean, hidden
        activations), without the value head. Biases and tanh apply in
        place, to the products' own arrays."""
        h = x @ p["W1"].transpose(0, 2, 1)
        h += p["b1"][:, None, :]
        np.tanh(h, h)
        mean = h @ p["W2"].transpose(0, 2, 1)
        mean += p["b2"][:, None, :]
        return mean, h

    def forward_scaled(self, x: np.ndarray, p: dict):
        """Stacked forward pass of P parameter rows, each on its own batch:
        x is (P, B, obs_dim), observations divided by their rows' scales,
        and p the rows' ``_unflatten`` split. Row p equals ``forward`` of a
        policy holding row p's parameters, bit for bit: each stacked matmul
        runs the product ``forward`` runs. ``mean_scaled`` is its trunk and
        mean head, for callers that read no value."""
        mean, h = self.mean_scaled(x, p)
        value = (h @ p["wv"][:, :, None])[:, :, 0] + p["bv"][:, None]
        return mean, value, h


POLICY_FORMAT = 1


def save_policy(policy: GaussianPolicy, path: str) -> None:
    blob = {
        "format": POLICY_FORMAT,
        "name": policy.name,
        "hyperparameters": policy.hyperparameters,
        "obs_scale": getattr(policy, "obs_scale", np.ones(0)).tolist(),
        "parameters": policy.get_flat().tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, sort_keys=True)
        fh.write("\n")


def _finite_numbers(values, name: str) -> np.ndarray:
    """A JSON list of finite numbers as float64; ValueError otherwise."""
    if not (isinstance(values, list) and all(
            type(x) in (int, float) for x in values)):
        raise ValueError(f"{name} must be a list of numbers")
    out = np.array(values, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


def load_policy(path: str) -> GaussianPolicy:
    """Read a ``save_policy`` file; DataError when it cannot be one: its
    obs_scale must be finite and positive and its parameters finite,
    written as JSON numbers."""
    try:
        with reading(path) as fh:
            blob = json.load(fh)
        if blob.get("format") != POLICY_FORMAT:
            raise ValueError(f"unsupported policy format {blob.get('format')!r}")
        if blob.get("name") != "gaussian":
            raise ValueError(f"unknown policy kind {blob.get('name')!r}")
        hp = blob["hyperparameters"]
        obs_scale = _finite_numbers(blob["obs_scale"], "obs_scale")
        if not (obs_scale > 0.0).all():
            raise ValueError("obs_scale must be positive")
        policy = GaussianPolicy(hp["obs_dim"], hp["action_dim"], hp["hidden"],
                                hp.get("seed", 0), obs_scale=obs_scale)
        policy.set_flat(_finite_numbers(blob["parameters"], "parameters"))
    except (ValueError, LookupError, TypeError, AttributeError,
            OverflowError, TrainingError) as exc:
        raise DataError(f"{path}: not a policy file ({exc!r})") from None
    return policy
