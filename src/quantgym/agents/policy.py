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


def draw_weights(seed: int, weights) -> None:
    """Fill a new policy's W1, W2 and wv, in that order, with normals
    from ``default_rng(seed)`` scaled by 1/sqrt(fan-in): the values of
    ``rng.normal(0.0, scale, shape)``, drawn into the given views."""
    rng = np.random.default_rng(seed)
    for w in weights:
        rng.standard_normal(out=w)
        w *= 1.0 / math.sqrt(w.shape[-1])


class GaussianPolicy(Policy):
    """Two-layer tanh perceptron with a state-independent log-std per
    action dimension and a value head sharing the trunk."""

    name = "gaussian"

    def __init__(self, obs_dim: int, action_dim: int, hidden: int = 64,
                 seed: int = 0, obs_scale: np.ndarray | None = None):
        super().__init__({"obs_dim": obs_dim, "action_dim": action_dim,
                          "hidden": hidden, "seed": seed})
        check_policy_sizes(obs_dim, action_dim, hidden)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.hidden = hidden
        self.W1 = np.empty((hidden, obs_dim))
        self.b1 = np.zeros(hidden)
        self.W2 = np.empty((action_dim, hidden))
        self.b2 = np.zeros(action_dim)
        self.log_std = np.full(action_dim, -0.5)
        self.wv = np.empty(hidden)
        self.bv = 0.0
        draw_weights(seed, (self.W1, self.W2, self.wv))
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


class StackedNet:
    """The forward pass of P parameter rows of one ``GaussianPolicy``
    shape, each row on its own batch of observations divided by its
    row's scale. Row p equals ``forward`` of a policy holding row p's
    parameters, bit for bit: each stacked matmul runs the product
    ``forward`` runs. The views it reads are split from the (P,
    n_parameters) block once and stay current while the block is
    updated in place."""

    def __init__(self, policy: GaussianPolicy, params: np.ndarray):
        self.fields = f = policy._unflatten(params)
        self.W1T, self.b1 = f["W1"].transpose(0, 2, 1), f["b1"][:, None, :]
        self.W2T, self.b2 = f["W2"].transpose(0, 2, 1), f["b2"][:, None, :]
        self.wv, self.bv = f["wv"][:, :, None], f["bv"][:, None]

    def trunk(self, x: np.ndarray, out: np.ndarray | None = None):
        """(P, B, hidden) activations of (P, B, obs_dim) x, written into
        out when given; the bias and tanh apply in place."""
        h = np.matmul(x, self.W1T, out=out)
        h += self.b1
        return np.tanh(h, out=h)

    def mean(self, h: np.ndarray, out: np.ndarray | None = None):
        """(P, B, action_dim) action means of activations h, written into
        out when given."""
        return np.add(h @ self.W2T, self.b2, out=out)

    def value(self, h: np.ndarray) -> np.ndarray:
        """(..., P, B) values of (..., P, B, hidden) activations h: one
        product per row and leading index, so a stack of batches of one
        runs one dot each, as a single batch of one does."""
        return (h @ self.wv)[..., 0] + self.bv

    def forward(self, x: np.ndarray):
        """(mean, value, hidden activations) of (P, B, obs_dim) x."""
        h = self.trunk(x)
        return self.mean(h), self.value(h), h


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
