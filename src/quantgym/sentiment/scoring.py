"""Document scoring: clause-scoped shifters and bounded compound scores."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .lexicon import SentimentDictionary, ShifterTable
from .preprocess import (
    _SENTENCE_RE,
    _TOKEN_RE,
    Document,
    Token,
    default_abbreviations,
    default_rules,
    token_words,
)

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


# a word's row: (valence or None, intensifier boost or None, negator?, verb?)
Row = tuple[float | None, float | None, bool, bool]


def token_row(tok: Token, dictionary: SentimentDictionary,
              shifters: ShifterTable) -> Row:
    lemma = tok.lemma
    return (dictionary.entries.get(lemma), shifters.intensifiers.get(lemma),
            lemma in shifters.negators, tok.pos == "VERB")


def _sentence_raw(rows, shifters: ShifterTable) -> float:
    # one pass: a hit takes the boosts of the intensifiers before it in
    # its clause, and the negation of a negator at most negation_window
    # words back in it; a verb ends the clause
    window, factor = shifters.negation_window, shifters.negation_factor
    raw = 0.0
    boost = 0.0  # never -0.0, so skipping zero boosts changes no bit
    negated_through = -1  # last index the clause's last negator reaches
    for i, (valence, extra, negates, is_verb) in enumerate(rows):
        if valence is not None:
            if valence > 0:
                valence += boost
            elif valence < 0:
                valence -= boost
            if i <= negated_through:
                valence *= factor
            raw += valence
        if extra:
            boost += extra
        if negates:
            negated_through = i + window
        if is_verb:
            boost = 0.0
            negated_through = -1
    return raw


def _score(per_sentence: tuple[float, ...], alpha: float) -> SentimentScore:
    total = 0.0  # left to right: ``sum`` compensates from Python 3.12 on
    for raw in per_sentence:
        total += raw
    compound = normalize_compound(total, alpha)
    return SentimentScore(compound, polarity_of(compound), per_sentence)


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
    return _score(tuple(
        _sentence_raw([token_row(tok, dictionary, shifters) for tok in tokens],
                      shifters)
        for tokens in doc.sentences), alpha)


class TextScorer:
    """``score_document(preprocess(text), dictionary, shifters)``, bit for
    bit, in one pass over the text and with no Token or Document built
    per line.

    Each sentence is tokenized as ``preprocess`` does it; a raw token maps
    through a memo to its normalized words (abbreviations expanded), and
    a word, keyed with whether the word before it in its sentence is a
    verb, through a second memo to its row for ``_sentence_raw``. That
    memo is two dicts, indexed by the flag, so no key is built per word.
    The default lemma rules and abbreviations apply, and no company names.
    """

    def __init__(self, dictionary: SentimentDictionary,
                 shifters: ShifterTable):
        if len(dictionary) == 0:
            raise ValueError("empty sentiment dictionary")
        self.dictionary, self.shifters = dictionary, shifters
        self.rules = default_rules()
        self.abbreviations = default_abbreviations()
        self._words: dict[str, tuple[str, ...]] = {}
        # word -> row, for a word after a non-verb and after a verb
        self._rows: tuple[dict[str, Row], dict[str, Row]] = ({}, {})

    def score(self, text: str) -> SentimentScore:
        words_memo, rows_memo = self._words, self._rows
        dictionary, shifters = self.dictionary, self.shifters
        rules = self.rules
        per_sentence = []
        for chunk in _SENTENCE_RE.split(text):
            rows = []
            after_verb = False
            for token in _TOKEN_RE.findall(chunk):
                words = words_memo.get(token)
                if words is None:
                    words = words_memo[token] = token_words(
                        token, self.abbreviations, rules.normalize)
                for word in words:
                    row = rows_memo[after_verb].get(word)
                    if row is None:
                        row = rows_memo[after_verb][word] = token_row(
                            rules.token(word, after_verb), dictionary,
                            shifters)
                    rows.append(row)
                    after_verb = row[3]
            if rows:
                per_sentence.append(_sentence_raw(rows, shifters))
        return _score(tuple(per_sentence), COMPOUND_ALPHA)
