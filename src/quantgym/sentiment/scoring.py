"""Document scoring: clause-scoped shifters and bounded compound scores."""
from __future__ import annotations

import math
from typing import NamedTuple

from .lexicon import SentimentDictionary, ShifterTable
from .preprocess import (
    _SENTENCE_RE,
    _WORD_RE,
    MEMO_MAX,
    Document,
    Token,
    default_abbreviations,
    default_rules,
    token_words,
)

COMPOUND_ALPHA = 15.0
POSITIVE_THRESHOLD = 0.05
NEGATIVE_THRESHOLD = -0.05
# the pieces a TextScorer memo may store before it has served any; past
# them it stores one per piece it serves from a line with no miss
LEARN_MIN = 1 << 10


class SentimentScore(NamedTuple):
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
# a whitespace-free piece's (or raw token's) rows, the after-verb flag
# after it, and whether it ends a sentence
Piece = tuple[tuple[Row, ...], bool, bool]


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

    The text is walked in whitespace-free pieces: ``str.split`` cuts at
    the characters the sentence pattern takes for whitespace, and no
    token spans whitespace. A piece, keyed with whether the word before it
    in its sentence is a verb, maps through a memo to its rows for
    ``_sentence_raw``, the flag after it, and whether it ends a sentence
    (only a run of terminators at its end can; its terminators tokenize
    to punctuation, which yields no words). Raw tokens share the memo, a
    token being the one piece it tokenizes to; only a new one is
    normalized (its abbreviation expanded) and lemmatized.

    A piece the memo lacks is stored from the entries of its raw tokens
    while the memo has credit: it starts with ``LEARN_MIN`` and earns one
    per piece of a line served whole from the memo. Without credit, the
    rest of the line is tokenized per sentence as ``preprocess`` does it,
    and no piece is stored, so text whose pieces never repeat costs what
    per-sentence tokenizing costs. Both skip the one-character tokens,
    which yield no word. The memo is two dicts indexed by the flag, so no
    key is built per piece; a dict that reaches ``MEMO_MAX`` entries is
    emptied. The default lemma rules and abbreviations apply.
    """

    def __init__(self, dictionary: SentimentDictionary,
                 shifters: ShifterTable):
        if len(dictionary) == 0:
            raise ValueError("empty sentiment dictionary")
        self.dictionary, self.shifters = dictionary, shifters
        self.rules = default_rules()
        self.abbreviations = default_abbreviations()
        # piece or raw token -> Piece, after a non-verb and after a verb
        self._memo: tuple[dict[str, Piece], dict[str, Piece]] = ({}, {})
        self._credit = LEARN_MIN

    def score(self, text: str) -> SentimentScore:
        memo, shifters = self._memo, self.shifters
        pieces = text.split()
        credit = self._credit
        per_sentence: list[float] = []
        rows: list[Row] = []
        after_verb = False
        rest = iter(pieces)
        for piece in rest:
            entry = memo[after_verb].get(piece)
            if entry is None:
                if credit <= 0:
                    self._credit = 0
                    # from this piece on, the text tokenizes and splits
                    # into sentences as its pieces joined by spaces do
                    return self._score_sentences(" ".join((piece, *rest)),
                                                 per_sentence, rows,
                                                 after_verb)
                entry = self._learn(piece, after_verb)
                credit -= 1
            piece_rows, after_verb, ends = entry
            rows += piece_rows
            if ends:
                if rows:
                    per_sentence.append(_sentence_raw(rows, shifters))
                    rows = []
                after_verb = False
        if rows:
            per_sentence.append(_sentence_raw(rows, shifters))
        if credit == self._credit:  # served whole from the memo
            credit += len(pieces)
        self._credit = credit
        return _score(tuple(per_sentence), COMPOUND_ALPHA)

    def _score_sentences(self, text: str, per_sentence: list[float],
                         rows: list[Row], after_verb: bool) -> SentimentScore:
        """Finish ``score`` tokenizing each sentence of the rest of the
        text whole; its first sentence continues ``rows``."""
        memo, shifters = self._memo, self.shifters
        for chunk in _SENTENCE_RE.split(text):
            for token in _WORD_RE.findall(chunk):
                entry = memo[after_verb].get(token)
                if entry is None:
                    entry = self._token(token, after_verb)
                rows += entry[0]
                after_verb = entry[1]
            if rows:
                per_sentence.append(_sentence_raw(rows, shifters))
                rows = []
            after_verb = False
        return _score(tuple(per_sentence), COMPOUND_ALPHA)

    def _learn(self, piece: str, after_verb: bool) -> Piece:
        """Store the Piece of a piece from those of its raw tokens."""
        memo = self._memo
        rows: list[Row] = []
        flag = after_verb
        for token in _WORD_RE.findall(piece):
            entry = memo[flag].get(token)
            if entry is None:
                entry = self._token(token, flag)
            rows += entry[0]
            flag = entry[1]
        return self._store(after_verb, piece, rows, flag)

    def _token(self, token: str, after_verb: bool) -> Piece:
        """Store the Piece of a raw token: the rows of its words."""
        rules = self.rules
        rows: list[Row] = []
        flag = after_verb
        for word in token_words(token, self.abbreviations, rules.normalize):
            row = token_row(rules.token(word, flag), self.dictionary,
                            self.shifters)
            rows.append(row)
            flag = row[3]
        return self._store(after_verb, token, rows, flag)

    def _store(self, after_verb: bool, key: str, rows: list[Row],
               flag: bool) -> Piece:
        table = self._memo[after_verb]
        if len(table) >= MEMO_MAX:
            table.clear()
        entry = table[key] = (tuple(rows), flag, key[-1] in ".!?;")
        return entry
