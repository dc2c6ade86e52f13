"""Text preprocessing: tokenize, fix abbreviations, normalize, lemmatize.

The stages run in a fixed order: sentence/word tokenization, abbreviation
restoration, lower-casing with punctuation and number removal, company
name neutralization, then POS-guided lemmatization. POS tagging and
lemmatization are table-driven from a shipped rule file (a small lexicon,
an irregular-form exception list, and ordered suffix rules); there is no
external NLP runtime.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .lexicon import packaged, read_tsv

COMPANY_TOKEN = "company_random"

_SENTENCE_RE = re.compile(r"[.!?;]+(?=\s|$)")
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_'’\-]*|\S")
_LETTERS_RE = re.compile(r"[^a-z_]")

VOWELS = set("aeiou")


@dataclass(frozen=True)
class Token:
    text: str  # normalized surface form
    lemma: str
    pos: str  # VERB | NOUN | ADJ | ADV | OTHER


@dataclass(frozen=True)
class Document:
    raw_text: str
    sentences: tuple[tuple[Token, ...], ...]


def _smart_stem(stem: str) -> str:
    # undouble a trailing consonant pair except ss/ll/ee (plann -> plan)
    if (len(stem) >= 3 and stem[-1] == stem[-2]
            and stem[-1] not in VOWELS and stem[-1] not in "sl"):
        return stem[:-1]
    return stem


class LemmaRules:
    """POS lexicon, irregular exceptions, and ordered suffix rules."""

    def __init__(self, lexicon, exceptions, suffix_rules):
        self.lexicon = lexicon  # word -> pos
        self.exceptions = exceptions  # word -> (lemma, pos)
        self.suffix_rules = suffix_rules  # (pos, suffix, replacement, known_only)
        self.known: dict[str, set[str]] = {}
        for word, pos in lexicon.items():
            self.known.setdefault(pos, set()).add(word)
        for lemma, pos in exceptions.values():
            self.known.setdefault(pos, set()).add(lemma)
        # per-instance memos for preprocess and TextScorer: raw token ->
        # _normalize(token), and (word, prefer_noun) -> the Token of
        # analyze()
        self._normalized: dict[str, str | None] = {}
        self._tokens: dict[tuple[str, bool], Token] = {}

    @classmethod
    def load(cls, path) -> "LemmaRules":
        """TSV rows lexicon<TAB>word<TAB>pos, exception<TAB>word<TAB>lemma<TAB>pos
        and suffix<TAB>pos<TAB>suffix<TAB>replacement(- for none)<TAB>known?."""
        lexicon: dict[str, str] = {}
        exceptions: dict[str, tuple[str, str]] = {}
        suffix_rules: list[tuple[str, str, str, bool]] = []

        def row(kind, *fields):
            if kind == "lexicon":
                word, pos = fields
                lexicon[word] = pos
            elif kind == "exception":
                word, lemma, pos = fields
                exceptions[word] = (lemma, pos)
            elif kind == "suffix":
                pos, suffix, replacement, *known = fields
                if known not in ([], ["known"]):
                    raise ValueError(f"suffix rule flag {known} is not 'known'")
                suffix_rules.append((pos, suffix, "" if replacement == "-"
                                     else replacement, bool(known)))
            else:
                raise ValueError(f"unknown rule kind {kind!r}")

        read_tsv(path, row)
        return cls(lexicon, exceptions, suffix_rules)

    def analyze(self, word: str, prefer_noun: bool = False) -> tuple[str, str]:
        """Return (lemma, pos) for one normalized token."""
        if word == COMPANY_TOKEN:
            return word, "NOUN"
        if word in self.exceptions:
            return self.exceptions[word]
        if word in self.lexicon:
            return word, self.lexicon[word]

        analyses: list[tuple[str, str]] = []
        fallback: tuple[str, str] | None = None
        for pos, suffix, replacement, known_only in self.suffix_rules:
            if not word.endswith(suffix):
                continue
            stem = word[: len(word) - len(suffix)] + replacement
            if len(stem) < 2:
                continue
            known = self.known.get(pos, ())
            hit = None
            for cand in (stem, _smart_stem(stem),
                         stem + "e" if stem[-1] not in VOWELS else stem):
                if cand in known:
                    hit = cand
                    break
            if hit is not None:
                analyses.append((hit, pos))
            elif not known_only and fallback is None:
                fallback = (_smart_stem(stem), pos)
        if analyses:
            if prefer_noun:
                for lemma, pos in analyses:
                    if pos == "NOUN":
                        return lemma, pos
            return analyses[0]
        if word.endswith("ly") and len(word) > 4:
            return word, "ADV"
        if fallback is not None:
            # a guessed lemma must be its own lemma (aaings -> aaing -> aa),
            # so one that reduces further gives way to its reduction
            reduced = self.analyze(fallback[0], prefer_noun)
            return fallback if reduced[0] == fallback[0] else reduced
        return word, "NOUN"

    def normalize(self, token: str) -> str | None:
        """``_normalize(token)``, computed once per distinct raw token."""
        try:
            return self._normalized[token]
        except KeyError:
            word = self._normalized[token] = _normalize(token)
            return word

    def token(self, word: str, prefer_noun: bool) -> Token:
        """The Token of ``analyze(word, prefer_noun)``, built once per key."""
        key = (word, prefer_noun)
        try:
            return self._tokens[key]
        except KeyError:
            lemma, pos = self.analyze(word, prefer_noun)
            tok = self._tokens[key] = Token(word, lemma, pos)
            return tok


@lru_cache(maxsize=1)
def default_rules() -> LemmaRules:
    return LemmaRules.load(packaged("lemma_rules.tsv"))


@lru_cache(maxsize=1)
def default_abbreviations() -> dict[str, str]:
    return dict(read_tsv(packaged("abbreviations.tsv"),
                         lambda abbr, expansion: (abbr.lower(), expansion)))


def _normalize(token: str) -> str | None:
    """Lower-case and strip punctuation/digits; None drops the token."""
    low = token.lower()
    if low.endswith("'s") or low.endswith("’s"):
        low = low[:-2]
    if any(ch.isdigit() for ch in low):
        return None
    low = _LETTERS_RE.sub("", low)
    return low or None


def token_words(token: str, abbreviations: dict[str, str],
                normalize) -> tuple[str, ...]:
    """The normalized words of one raw token: those of its abbreviation's
    expansion if it has one, else itself; none if it normalizes away."""
    word = normalize(token)
    expansion = abbreviations.get(word)
    if expansion is not None:
        return tuple(w for w in map(normalize, expansion.split()) if w)
    return (word,) if word else ()


def _replace_companies(tokens: list[str], names: list[list[str]]) -> list[str]:
    if not names:
        return tokens
    out: list[str] = []
    i = 0
    while i < len(tokens):
        matched = 0
        for name in names:
            k = len(name)
            if k and tokens[i:i + k] == name and k > matched:
                matched = k
        if matched:
            out.append(COMPANY_TOKEN)
            i += matched
        else:
            out.append(tokens[i])
            i += 1
    return out


def preprocess(text: str,
               abbreviations: dict[str, str] | None = None,
               company_names: list[str] | None = None,
               rules: LemmaRules | None = None) -> Document:
    """Run the five preprocessing stages over raw text.

    Company names (single- or multi-word, case-insensitive) collapse to
    the neutral ``company_random`` token so sentiment-bearing names do
    not leak into scoring. Degenerate input yields an empty document.
    """
    rules = rules or default_rules()
    abbreviations = default_abbreviations() if abbreviations is None else {
        k.lower(): v for k, v in abbreviations.items()}
    normalize = rules.normalize
    name_tokens: list[list[str]] = []
    for name in company_names or []:
        toks = [t for t in map(normalize, _TOKEN_RE.findall(name)) if t]
        if toks:
            name_tokens.append(toks)
    name_tokens.sort(key=len, reverse=True)

    sentences: list[tuple[Token, ...]] = []
    for chunk in _SENTENCE_RE.split(text):
        raw_tokens = _TOKEN_RE.findall(chunk)
        if not raw_tokens:
            continue
        normalized: list[str] = []
        for tok in raw_tokens:
            normalized.extend(token_words(tok, abbreviations, normalize))
        normalized = _replace_companies(normalized, name_tokens)
        toks: list[Token] = []
        prev_pos = ""
        for word in normalized:
            token = rules.token(word, prev_pos == "VERB")
            toks.append(token)
            prev_pos = token.pos
        if toks:
            sentences.append(tuple(toks))
    return Document(text, tuple(sentences))
