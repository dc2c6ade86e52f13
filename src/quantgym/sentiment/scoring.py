"""Document scoring: clause-scoped shifters and bounded compound scores."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .lexicon import SentimentDictionary, ShifterTable
from .preprocess import Document

COMPOUND_ALPHA = 15.0
POSITIVE_THRESHOLD = 0.05
NEGATIVE_THRESHOLD = -0.05


@dataclass(frozen=True)
class SentimentScore:
    compound: float  # in [-1, 1]
    polarity: str  # negative | neutral | positive
    per_sentence: tuple[float, ...]  # raw sums before normalization


def polarity_of(compound: float) -> str:
    if compound >= POSITIVE_THRESHOLD:
        return "positive"
    if compound <= NEGATIVE_THRESHOLD:
        return "negative"
    return "neutral"


def normalize_compound(total: float, alpha: float = COMPOUND_ALPHA) -> float:
    return total / math.sqrt(total * total + alpha)


def _sentence_raw(tokens, dictionary: SentimentDictionary,
                  shifters: ShifterTable) -> float:
    # one pass: a hit takes the boosts of the intensifiers before it in
    # its clause, and the negation of a negator at most negation_window
    # tokens back in it; a verb ends the clause
    valence_of = dictionary.entries.get
    boost_of = shifters.intensifiers.get
    negators, window = shifters.negators, shifters.negation_window
    factor = shifters.negation_factor
    raw = 0.0
    boost = 0.0  # never -0.0, so skipping zero boosts changes no bit
    negated_through = -1  # last index the clause's last negator reaches
    for i, tok in enumerate(tokens):
        lemma = tok.lemma
        valence = valence_of(lemma)
        if valence is not None:
            if valence > 0:
                valence += boost
            elif valence < 0:
                valence -= boost
            if i <= negated_through:
                valence *= factor
            raw += valence
        extra = boost_of(lemma)
        if extra:
            boost += extra
        if lemma in negators:
            negated_through = i + window
        if tok.pos == "VERB":
            boost = 0.0
            negated_through = -1
    return raw


def score_document(doc: Document, dictionary: SentimentDictionary,
                   shifters: ShifterTable,
                   alpha: float = COMPOUND_ALPHA) -> SentimentScore:
    """Score a preprocessed document.

    Within each sentence, clauses are cut after finite verbs; a hit's
    valence absorbs every preceding intensifier boost in its clause
    (pushed away from zero) and is flipped and damped by the negation
    factor when a negator sits within the negation window. Sentence raw
    sums add with equal weight, left to right, and the total is squashed
    to [-1, 1].
    """
    if len(dictionary) == 0:
        raise ValueError("empty sentiment dictionary")
    per_sentence = tuple(
        _sentence_raw(tokens, dictionary, shifters) for tokens in doc.sentences)
    total = 0.0  # left to right: ``sum`` compensates from Python 3.12 on
    for raw in per_sentence:
        total += raw
    compound = normalize_compound(total, alpha)
    return SentimentScore(compound, polarity_of(compound), per_sentence)
