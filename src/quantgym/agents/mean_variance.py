"""Mean-variance and minimum-variance weights via projected gradient.

Solves max w'mu - lambda w'Sigma w (or min w'Sigma w) over the
probability simplex with accelerated projected gradient descent and a
Euclidean simplex projection.
"""
from __future__ import annotations

import numpy as np

from ..config import check_domain
from ..errors import TrainingError


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1} (sort method)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho_candidates = u + (1.0 - css) / np.arange(1, len(v) + 1)
    rho = np.nonzero(rho_candidates > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(v + theta, 0.0)


def _argmax_lowest_index(values: np.ndarray) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def mean_variance_weights(mu: np.ndarray, sigma: np.ndarray,
                          risk_aversion: float = 1.0,
                          mode: str = "mean_variance",
                          tol: float = 1e-10,
                          max_iter: int = 200_000) -> np.ndarray:
    """Optimal simplex weights for the risk/return trade-off.

    mode="min_variance" ignores mu; mode="mean_variance" with
    risk_aversion=0 reduces to picking the highest expected return
    (ties to the lowest index). Raises on a non-PSD covariance (after
    symmetrization) or failure to converge within max_iter.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    sigma = np.asarray(sigma, dtype=float)
    n = mu.size
    if sigma.shape != (n, n):
        raise TrainingError(f"covariance shape {sigma.shape} != {(n, n)}")
    if mode not in ("mean_variance", "min_variance"):
        raise TrainingError(f"unknown mode {mode!r}")
    check_domain("agent", "risk_aversion", risk_aversion, TrainingError)
    sym = 0.5 * (sigma + sigma.T)
    eigs = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(eigs[-1]))
    if eigs[0] < -1e-10 * scale:
        raise TrainingError(
            f"covariance is not positive semi-definite (min eig {eigs[0]:.3e})")

    # normalize the objective: minimize w'Qw - c'w
    if mode == "min_variance":
        Q, c = sym, np.zeros(n)
    elif risk_aversion >= 1.0:
        Q, c = sym, mu / risk_aversion
    else:
        Q, c = risk_aversion * sym, mu

    lip = 2.0 * float(np.linalg.eigvalsh(Q)[-1])
    if lip <= 1e-300:
        # purely linear objective: the optimum is a vertex
        out = np.zeros(n)
        out[_argmax_lowest_index(c)] = 1.0
        return out
    step = 1.0 / lip

    def fval(w):
        return float(w @ Q @ w - c @ w)

    w = np.full(n, 1.0 / n)
    y = w.copy()
    t_mom = 1.0
    f_prev = fval(w)
    for _ in range(max_iter):
        grad = 2.0 * (Q @ y) - c
        w_new = project_simplex(y - step * grad)
        f_new = fval(w_new)
        if f_new > f_prev:  # momentum restart
            y = w.copy()
            t_mom = 1.0
            grad = 2.0 * (Q @ y) - c
            w_new = project_simplex(y - step * grad)
            f_new = fval(w_new)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = w_new + ((t_mom - 1.0) / t_next) * (w_new - w)
        moved = float(np.abs(w_new - w).max())
        w, t_mom, f_prev = w_new, t_next, f_new
        if moved <= tol:
            return w
    raise TrainingError(
        f"projected gradient did not converge within {max_iter} iterations")


def estimate_moments(close: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance of simple returns from a (T, n) price grid."""
    close = np.asarray(close, dtype=float)
    if close.shape[0] < 3:
        raise TrainingError("need at least 3 price rows to estimate moments")
    rets = close[1:] / close[:-1] - 1.0
    mu = rets.mean(axis=0)
    centered = rets - mu
    sigma = centered.T @ centered / (rets.shape[0] - 1)
    return mu, sigma

