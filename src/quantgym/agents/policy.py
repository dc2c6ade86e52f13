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
        if not self.learning_rate > 0.0:
            raise TrainingError(f"learning_rate must be positive, got "
                                f"{self.learning_rate!r}")


class Policy:
    """Maps observations to actions; deterministic in evaluation mode."""

    name = "policy"

    def __init__(self, hyperparameters: dict | None = None):
        self.hyperparameters = dict(hyperparameters or {})

    def begin_episode(self) -> None:
        """Hook called once per episode by backtest/training drivers."""

    def act(self, observation: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def metadata(self) -> dict:
        return {"name": self.name, "hyperparameters": self.hyperparameters}


def check_policy_sizes(obs_dim: int, action_dim: int, hidden: int) -> None:
    """TrainingError unless a ``GaussianPolicy`` of these sizes can be built."""
    if min(obs_dim, action_dim, hidden) < 1:
        raise TrainingError(f"policy sizes must be positive, got obs_dim="
                            f"{obs_dim}, action_dim={action_dim}, "
                            f"hidden={hidden}")


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

    def forward_population(self, obs: np.ndarray, params: np.ndarray,
                           obs_scale: np.ndarray | None = None):
        """Stacked forward pass of P parameter vectors, each on its own batch.

        obs is (P, B, obs_dim), params (P, n_parameters) or its
        ``_unflatten`` split, and obs_scale (P, obs_dim), by default this
        policy's for every row. Returns
        (mean, value, hidden activations) shaped (P, B, action_dim),
        (P, B) and (P, B, hidden); row p equals ``forward(obs[p])`` of
        a policy holding params[p] and obs_scale[p], bit for bit. Each
        stacked matmul runs the product ``forward`` runs on that row,
        so the summation order is unchanged.
        """
        p = params if isinstance(params, dict) else \
            self._unflatten(np.asarray(params, dtype=float))
        scale = self.obs_scale if obs_scale is None else obs_scale[:, None, :]
        x = np.asarray(obs, dtype=float) / scale
        h = np.tanh(x @ p["W1"].transpose(0, 2, 1) + p["b1"][:, None, :])
        mean = h @ p["W2"].transpose(0, 2, 1) + p["b2"][:, None, :]
        value = (h @ p["wv"][:, :, None])[:, :, 0] + p["bv"][:, None]
        return mean, value, h

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
