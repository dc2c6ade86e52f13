"""Policy interface, the Gaussian MLP policy, and flat serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

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
        if not 0.0 < self.gamma <= 1.0:
            raise TrainingError("gamma must lie in (0, 1]")
        if self.steps < 1 or self.rollout_steps < 1:
            raise TrainingError("steps and rollout_steps must be positive")


class Policy:
    """Maps observations to actions; deterministic in evaluation mode."""

    name = "policy"

    def __init__(self, hyperparameters: dict | None = None):
        self.hyperparameters = dict(hyperparameters or {})

    def begin_episode(self) -> None:
        """Hook called once per episode by backtest/training drivers."""

    def act(self, observation: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def parameters(self) -> np.ndarray:
        return np.zeros(0)

    def metadata(self) -> dict:
        return {"name": self.name, "hyperparameters": self.hyperparameters}


class GaussianPolicy(Policy):
    """Two-layer tanh perceptron with a state-independent log-std per
    action dimension and a value head sharing the trunk."""

    name = "gaussian"

    def __init__(self, obs_dim: int, action_dim: int, hidden: int = 64,
                 seed: int = 0, obs_scale: np.ndarray | None = None):
        super().__init__({"obs_dim": obs_dim, "action_dim": action_dim,
                          "hidden": hidden, "seed": seed})
        if min(obs_dim, action_dim, hidden) < 1:
            raise TrainingError(f"policy sizes must be positive, got obs_dim="
                                f"{obs_dim}, action_dim={action_dim}, "
                                f"hidden={hidden}")
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
        fields = {}
        offset = 0
        for f in self._fields():
            shape = np.shape(getattr(self, f))
            size = math.prod(shape)
            fields[f] = vecs[..., offset:offset + size].reshape(
                vecs.shape[:-1] + shape)
            offset += size
        fields["bv"] = vecs[..., offset]
        offset += 1
        if offset != vecs.shape[-1]:
            raise TrainingError(f"parameter vector has {vecs.shape[-1]} "
                                f"entries, expected {offset}")
        return fields

    def set_flat(self, vec: np.ndarray) -> None:
        fields = self._unflatten(np.asarray(vec, dtype=float))
        for f in self._fields():
            setattr(self, f, fields[f].copy())
        self.bv = float(fields["bv"])

    @property
    def parameters(self) -> np.ndarray:
        return self.get_flat()

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

    def std(self) -> np.ndarray:
        return np.exp(self.log_std)

    def act(self, observation: np.ndarray) -> np.ndarray:
        mean, _, _ = self.forward(observation)
        return mean[0]

    def act_population(self, obs: np.ndarray, params: np.ndarray) -> np.ndarray:
        """Deterministic actions of P parameter vectors on P observations.

        obs is (P, obs_dim) and params (P, n_parameters); row p equals
        ``set_flat(params[p]); act(obs[p])`` bit for bit. The stacked
        matmuls run each row as the same vector-matrix product ``act``
        runs, so the summation order is unchanged.
        """
        p = self._unflatten(np.asarray(params, dtype=float))
        x = (np.asarray(obs, dtype=float) / self.obs_scale)[:, None, :]
        h = np.tanh(x @ p["W1"].transpose(0, 2, 1) + p["b1"][:, None, :])
        mean = h @ p["W2"].transpose(0, 2, 1) + p["b2"][:, None, :]
        return mean[:, 0, :]

    def sample(self, observation: np.ndarray, rng: np.random.Generator):
        mean, value, _ = self.forward(observation)
        noise = rng.standard_normal(self.action_dim)
        action = mean[0] + self.std() * noise
        return action, float(value[0])

    def metadata(self) -> dict:
        meta = super().metadata()
        meta["obs_scale"] = self.obs_scale.tolist()
        return meta


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


def load_policy(path: str) -> GaussianPolicy:
    """Read a ``save_policy`` file; DataError when it cannot be one."""
    try:
        with reading(path) as fh:
            blob = json.load(fh)
        if blob.get("format") != POLICY_FORMAT:
            raise ValueError(f"unsupported policy format {blob.get('format')!r}")
        if blob.get("name") != "gaussian":
            raise ValueError(f"unknown policy kind {blob.get('name')!r}")
        hp = blob["hyperparameters"]
        policy = GaussianPolicy(hp["obs_dim"], hp["action_dim"], hp["hidden"],
                                hp.get("seed", 0),
                                obs_scale=np.asarray(blob["obs_scale"], float))
        policy.set_flat(np.asarray(blob["parameters"], float))
    except (ValueError, LookupError, TypeError, AttributeError,
            TrainingError) as exc:
        raise DataError(f"{path}: not a policy file ({exc!r})") from None
    return policy
