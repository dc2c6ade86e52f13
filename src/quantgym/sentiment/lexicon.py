"""Sentiment dictionary and valence-shifter tables, and the one reader of
the tab-separated resource files that every sentiment table loads from."""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from importlib import resources

from ..errors import DataError, reading

VALENCE_MIN, VALENCE_MAX = -4.0, 4.0


def packaged(name: str) -> str:
    """Path of a resource file shipped in ``quantgym/sentiment/data``."""
    return str(resources.files("quantgym.sentiment").joinpath(f"data/{name}"))


def read_tsv(path, row) -> list:
    """``row(*fields)`` for every data line of a tab-separated resource file.

    Blank lines and lines starting with ``#`` are skipped; every other
    line splits on tabs into the positional arguments of ``row``. An
    unreadable file raises DataError naming the path. A line whose field
    count does not fit ``row``'s signature, or for which ``row`` raises
    ValueError (a bad number, an unknown kind, a value out of range),
    raises DataError naming ``path:line``.
    """
    signature = inspect.signature(row)
    rows = []
    with reading(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                signature.bind(*fields)
            except TypeError:
                raise DataError(f"{path}:{line_no}: expected the fields "
                                f"{signature}, got {len(fields)} in {line!r}"
                                ) from None
            try:
                rows.append(row(*fields))
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from None
    return rows


def checked_valence(lemma: str, valence, what: str = "valence") -> float:
    valence = float(valence)
    if not math.isfinite(valence) or not VALENCE_MIN <= valence <= VALENCE_MAX:
        raise ValueError(
            f"{what} for {lemma!r} must be finite in "
            f"[{VALENCE_MIN}, {VALENCE_MAX}], got {valence}")
    return valence


@dataclass
class SentimentDictionary:
    """lemma -> valence in [-4, 4], with per-entry provenance."""

    entries: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {lemma.lower(): checked_valence(lemma.lower(), valence)
                        for lemma, valence in self.entries.items()}
        self.provenance = {k.lower(): v for k, v in self.provenance.items()}

    def __contains__(self, lemma: str) -> bool:
        return lemma in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, lemma: str, default: float | None = None):
        return self.entries.get(lemma, default)

    def items(self):
        return self.entries.items()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for lemma in sorted(self.entries):
                prov = self.provenance.get(lemma, "merged")
                fh.write(f"{lemma}\t{self.entries[lemma]!r}\t{prov}\n")

    @classmethod
    def load(cls, path) -> "SentimentDictionary":
        """TSV rows lemma<TAB>valence<TAB>provenance?."""
        def row(lemma, valence, provenance="merged"):
            return lemma, checked_valence(lemma, valence), provenance
        rows = read_tsv(path, row)
        return cls({lemma: v for lemma, v, _ in rows},
                   {lemma: prov for lemma, _, prov in rows})


@dataclass(frozen=True)
class ShifterTable:
    """Intensifier boosts, negator lemmas, and the negation multiplier."""

    intensifiers: dict[str, float] = field(default_factory=dict)
    negators: frozenset[str] = frozenset()
    negation_factor: float = -0.5
    negation_window: int = 3

    def __post_init__(self):
        checked_negation_factor(self.negation_factor)
        for lemma, boost in self.intensifiers.items():
            checked_boost(lemma, boost)
        object.__setattr__(self, "negators", frozenset(
            w.lower() for w in self.negators))
        object.__setattr__(self, "intensifiers", {
            k.lower(): float(v) for k, v in self.intensifiers.items()})

    @classmethod
    def load(cls, path) -> "ShifterTable":
        """TSV rows intensifier<TAB>lemma<TAB>boost, negator<TAB>lemma and
        negation_factor<TAB>factor."""
        intensifiers: dict[str, float] = {}
        negators: set[str] = set()
        factor = -0.5

        def row(kind, entry, boost=""):
            nonlocal factor
            if kind == "intensifier":
                intensifiers[entry] = checked_boost(entry, boost)
            elif kind == "negator":
                negators.add(entry)
            elif kind == "negation_factor":
                factor = checked_negation_factor(entry)
            else:
                raise ValueError(f"unknown shifter row kind {kind!r}")

        read_tsv(path, row)
        return cls(intensifiers, frozenset(negators), factor)


def checked_negation_factor(factor) -> float:
    factor = float(factor)
    if not -1.0 < factor < 0.0:
        raise ValueError(f"negation_factor must lie in (-1, 0), got {factor}")
    return factor


def checked_boost(lemma: str, boost) -> float:
    # bounded like a valence: a huge boost would overflow the square in
    # normalize_compound and score a strong text neutral or nan
    return checked_valence(lemma, boost, "boost")


def default_shifters() -> ShifterTable:
    return ShifterTable.load(packaged("shifters.tsv"))


def mini_financial_dictionary() -> SentimentDictionary:
    """Small shipped finance lexicon (synthetic fixture, demo scale)."""
    return SentimentDictionary.load(packaged("dict_financial_mini.tsv"))


def mini_general_dictionary() -> SentimentDictionary:
    """Small shipped general-domain lexicon (synthetic fixture)."""
    return SentimentDictionary.load(packaged("dict_general_mini.tsv"))
