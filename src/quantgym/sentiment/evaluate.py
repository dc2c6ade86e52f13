"""Corpus evaluation: polarity accuracy and valence correlation."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import DataError
from .lexicon import SentimentDictionary, ShifterTable, read_tsv
from .scoring import TextScorer

LABEL_MIN, LABEL_MAX = -100.0, 100.0


@dataclass(frozen=True)
class LabeledCorpus:
    """(text, valence label) pairs with labels in [-100, 100]."""

    items: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(
            (str(text), checked_label(label)) for text, label in self.items))

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def load(cls, path) -> "LabeledCorpus":
        """TSV rows valence_label<TAB>headline."""
        items = read_tsv(path, lambda label, headline, *tabbed: (
            "\t".join((headline,) + tabbed), checked_label(label)))
        if not items:
            raise DataError(f"{path}: no labeled headlines")
        return cls(tuple(items))


def checked_label(label) -> float:
    label = float(label)
    if not LABEL_MIN <= label <= LABEL_MAX:
        raise ValueError(f"label {label} outside [{LABEL_MIN}, {LABEL_MAX}]")
    return label


class EvalResult(NamedTuple):
    polarity_accuracy: float
    valence_correlation: float | None  # None when either series is constant


def label_polarity(label: float) -> str:
    if label > 0:
        return "positive"
    if label < 0:
        return "negative"
    return "neutral"


def evaluate(corpus: LabeledCorpus, dictionary: SentimentDictionary,
             shifters: ShifterTable) -> EvalResult:
    """Score each corpus item with one ``TextScorer`` against its label.

    Accuracy is the fraction of predicted polarities matching the label
    sign; correlation is Pearson between compounds and raw labels, None
    (with accuracy still returned) when either side is constant.
    """
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    scorer = TextScorer(dictionary, shifters)
    compounds = np.empty(len(corpus))
    labels = np.empty(len(corpus))
    hits = 0
    for i, (text, label) in enumerate(corpus.items):
        score = scorer.score(text)
        compounds[i] = score.compound
        labels[i] = label
        if score.polarity == label_polarity(label):
            hits += 1
    accuracy = hits / len(corpus)
    if np.std(compounds) == 0.0 or np.std(labels) == 0.0:
        return EvalResult(accuracy, None)
    correlation = float(np.corrcoef(compounds, labels)[0, 1])
    return EvalResult(accuracy, correlation)
