"""Per-window candidate selection by validation Sharpe."""
from __future__ import annotations

from dataclasses import dataclass

from ..pipeline import backtest, score_key
from .policy import Policy


@dataclass(frozen=True)
class EnsembleReport:
    sharpes: tuple  # per-candidate validation Sharpe (None when undefined)
    cumulative_returns: tuple
    chosen_index: int
    window_id: int
    used_fallback: bool  # True when every Sharpe was undefined


def ensemble_select(candidates: list[Policy], validation_env,
                    window_id: int = 0) -> tuple[Policy, EnsembleReport]:
    """Backtest every candidate on the validation env and keep the best.

    Candidates rank by ``pipeline.score_key``, the rule the rolling
    driver selects with: Sharpe, ties to the lowest index; if no
    candidate has a defined Sharpe (flat value series) the cumulative
    return decides and the report says so.
    """
    if not candidates:
        raise ValueError("ensemble_select needs at least one candidate")
    results = [backtest(policy, validation_env) for policy in candidates]
    keys = [score_key(result) for result in results]
    chosen = max(range(len(keys)), key=keys.__getitem__)
    metrics = [result.metrics for result in results]
    sharpes = tuple(None if m is None else m.sharpe for m in metrics)
    cums = tuple(0.0 if m is None else m.cumulative_return for m in metrics)
    report = EnsembleReport(sharpes, cums, chosen, window_id,
                            used_fallback=all(s is None for s in sharpes))
    return candidates[chosen], report
