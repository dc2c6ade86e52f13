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


# a word that shifts or scores: (its index among the words of its piece,
# valence or None, intensifier boost or None, negator?, verb?)
Event = tuple[int, float | None, float | None, bool, bool]
# the words of a piece (a whitespace-free run of text, a raw token or a
# sentence): the events among them, their count, the after-verb flag
# after them (False when the piece ends a sentence), and whether it ends
# one
Piece = tuple[tuple[Event, ...], int, bool, bool]
# the Piece of a sentence end with no word
_END: Piece = ((), 0, False, True)


def _events(tokens, dictionary: SentimentDictionary,
            shifters: ShifterTable) -> tuple[Event, ...]:
    """The events of a run of Tokens; a neutral word has none."""
    events = []
    for k, tok in enumerate(tokens):
        lemma = tok.lemma
        event = (k, dictionary.entries.get(lemma),
                 shifters.intensifiers.get(lemma), lemma in shifters.negators,
                 tok.pos == "VERB")
        if event[1] is not None or any(event[2:]):
            events.append(event)
    return tuple(events)


def score_document(doc: Document, dictionary: SentimentDictionary,
                   shifters: ShifterTable,
                   alpha: float = COMPOUND_ALPHA) -> SentimentScore:
    """Score a preprocessed document.

    Within each sentence, clauses are cut after finite verbs; a hit's
    valence absorbs every preceding intensifier boost in its clause
    (pushed away from zero) and is flipped and damped by the negation
    factor when a negator sits within the negation window. Sentence raw
    sums add with equal weight, left to right, and the total is squashed
    to [-1, 1]. This is ``TextScorer._scan`` with each sentence one
    Piece; a sentence with no Token adds no raw sum.
    """
    pieces = {k: (_events(tokens, dictionary, shifters), len(tokens), False,
                  True) for k, tokens in enumerate(doc.sentences)}
    return TextScorer(dictionary, shifters)._scan(pieces, (pieces, pieces),
                                                  alpha)


class TextScorer:
    """``score_document(preprocess(text), dictionary, shifters)``, bit for
    bit, with no Token or Document built per line and no Python step per
    neutral word.

    The text is walked in whitespace-free pieces: ``str.split`` cuts at
    the characters the sentence pattern takes for whitespace, and no
    token spans whitespace. A piece, keyed with whether the word before it
    in its sentence is a verb, maps through a memo to its Piece: only the
    words that score or shift, each with its index among the piece's
    words, then its word count, the flag after it, and whether it ends a
    sentence (only a run of terminators at its end can; its terminators
    tokenize to punctuation, which yields no words). Raw tokens share the
    memo, a token being the one piece it tokenizes to; only a new one is
    normalized (its abbreviation expanded) and lemmatized. One ``_scan``
    per line runs the scoring rule over the line's Pieces, in which a
    neutral word costs one add to the word index.

    A piece the memo lacks is stored from the entries of its raw tokens
    while the memo has credit: it starts with ``LEARN_MIN`` and earns one
    per piece of a line served whole from the memo. Without credit, the
    scan goes on over the raw tokens of the rest of the line, tokenized
    per sentence as ``preprocess`` does it, and no piece is stored, so
    text whose pieces never repeat costs about what per-sentence
    tokenizing costs. Both skip the one-character tokens, which yield no
    word. The memo is two dicts indexed by the flag, so no key is built
    per piece; a dict that reaches ``MEMO_MAX`` entries is emptied. The
    default lemma rules and abbreviations apply.
    """

    def __init__(self, dictionary: SentimentDictionary,
                 shifters: ShifterTable):
        if len(dictionary) == 0:
            raise ValueError("empty sentiment dictionary")
        self.dictionary, self.shifters = dictionary, shifters
        self.rules = default_rules()
        self.abbreviations = default_abbreviations()
        # piece or raw token -> Piece, after a non-verb and after a verb;
        # "", which no piece or token is, ends a sentence
        self._memo: tuple[dict[str, Piece], dict[str, Piece]] = (
            {"": _END}, {"": _END})
        self._credit = LEARN_MIN
        self._misses = 0

    def score(self, text: str) -> SentimentScore:
        pieces = text.split()
        misses = self._misses
        result = self._scan(pieces, self._memo)
        if self._misses == misses:  # served whole from the memo
            self._credit += len(pieces)
        return result

    def _scan(self, keys, tables, alpha: float = COMPOUND_ALPHA,
              ) -> SentimentScore:
        """Score the words of ``keys``, each key mapped to its Piece
        through ``tables[after_verb]``, or through ``_miss`` when that
        table lacks it; at a miss without credit the scan goes on over
        the raw tokens of the rest, a "" ending each sentence.

        One pass: a hit takes the boosts of the intensifiers before it in
        its clause, and the negation of a negator at most negation_window
        words back in it; a verb ends the clause. Each sentence with a
        word adds its raw sum to the total, left to right (``sum``
        compensates from Python 3.12 on), which is squashed to the
        compound.
        """
        window = self.shifters.negation_window
        factor = self.shifters.negation_factor
        per_sentence: list[float] = []
        total = raw = 0.0
        boost = 0.0  # never -0.0, so skipping zero boosts changes no bit
        reach = -1  # last word index the clause's last negator reaches
        i = 0  # the sentence's words before the piece
        after_verb = False
        miss = self._miss if self._credit > 0 else None
        keys = iter(keys)
        while True:
            for key in keys:
                entry = tables[after_verb].get(key)
                if entry is None:
                    self._misses += 1
                    # a line begun without credit has no miss function
                    entry = miss and miss(key, after_verb)
                    if entry is None:
                        break
                events, n_words, after_verb, ends = entry
                for k, valence, extra, negates, is_verb in events:
                    k += i
                    if valence is not None:
                        if valence > 0:
                            valence += boost
                        elif valence < 0:
                            valence -= boost
                        if k <= reach:
                            valence *= factor
                        raw += valence
                    if extra:
                        boost += extra
                    if negates:
                        reach = k + window
                    if is_verb:
                        boost = 0.0
                        reach = -1
                i += n_words
                if ends:
                    if i:
                        per_sentence.append(raw)
                        total += raw
                    raw = boost = 0.0
                    reach, i = -1, 0
            else:
                break
            # from this piece on, the text tokenizes and splits into
            # sentences as its pieces joined by spaces do, and each raw
            # token is a key; a "" ends the sentence in progress, then
            # each later one with a raw token (one without leaves the
            # state as the "" before it left it)
            rest: list[str] = []
            for chunk in _SENTENCE_RE.split(" ".join((key, *keys))):
                tokens = _WORD_RE.findall(chunk)
                if tokens or not rest:
                    rest += tokens
                    rest.append("")
            keys, miss = iter(rest), self._token
        if i:
            per_sentence.append(raw)
            total += raw
        compound = normalize_compound(total, alpha)
        return SentimentScore._make(
            (compound, polarity_of(compound), tuple(per_sentence)))

    def _miss(self, piece: str, after_verb: bool) -> Piece | None:
        """Store the Piece of a piece, or None when the memo has no
        credit."""
        if self._credit <= 0:
            return None
        self._credit -= 1
        memo = self._memo
        events: list[Event] = []
        n_words, flag = 0, after_verb
        for token in _WORD_RE.findall(piece):
            entry = memo[flag].get(token)
            if entry is None:
                entry = self._token(token, flag)
            for k, valence, extra, negates, is_verb in entry[0]:
                events.append((k + n_words, valence, extra, negates, is_verb))
            n_words += entry[1]
            flag = entry[2]
        ends = piece[-1] in ".!?;"
        return self._store(after_verb, piece,
                           (tuple(events), n_words, flag and not ends, ends))

    def _token(self, token: str, after_verb: bool) -> Piece:
        """Store the Piece of a raw token: the events of its words."""
        rules = self.rules
        tokens = []
        flag = after_verb
        for word in token_words(token, self.abbreviations, rules.normalize):
            tok = rules.token(word, flag)
            tokens.append(tok)
            flag = tok.pos == "VERB"
        return self._store(after_verb, token, (_events(
            tokens, self.dictionary, self.shifters), len(tokens), flag, False))

    def _store(self, after_verb: bool, key: str, entry: Piece) -> Piece:
        table = self._memo[after_verb]
        if len(table) >= MEMO_MAX:
            table.clear()
            table[""] = _END
        table[key] = entry
        return entry
