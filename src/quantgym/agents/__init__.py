"""Policies: trainable agents, classical baselines, and ensemble selection."""

from .a2c import Adam, a2c_loss_and_grad, train_a2c, train_a2c_all
from .baselines import (
    EqualWeightPolicy,
    PassivePolicy,
    WeightRebalancePolicy,
    ZeroPolicy,
    baseline_equal,
    baseline_passive,
    baseline_zero,
)
from .cem import cem_optimize, train_cem, train_cem_all
from .ensemble import EnsembleReport, ensemble_select
from .mean_variance import (
    estimate_moments,
    mean_variance_weights,
    project_simplex,
)
from .policy import GaussianPolicy, Policy, TrainConfig, load_policy, save_policy

__all__ = [
    "Adam",
    "EnsembleReport",
    "EqualWeightPolicy",
    "GaussianPolicy",
    "PassivePolicy",
    "Policy",
    "TrainConfig",
    "WeightRebalancePolicy",
    "ZeroPolicy",
    "a2c_loss_and_grad",
    "baseline_equal",
    "baseline_passive",
    "baseline_zero",
    "cem_optimize",
    "ensemble_select",
    "estimate_moments",
    "load_policy",
    "mean_variance_weights",
    "project_simplex",
    "save_policy",
    "train_a2c",
    "train_a2c_all",
    "train_cem",
    "train_cem_all",
]
