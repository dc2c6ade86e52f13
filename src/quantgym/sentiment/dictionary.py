"""Dictionary construction: merge two lexicons, then expand via synonyms.

The merge detects polarity contradictions (same lemma, opposite signs)
and excludes them unless a manual resolution is supplied. Expansion
walks a master word list, borrows the valence of each unlabeled word's
most-similar labeled synonym, filters weakly subjective words, and
gates low-similarity matches behind a manual override file.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

from ..errors import DataError
from .lexicon import SentimentDictionary, checked_valence, read_tsv

logger = logging.getLogger(__name__)

SUBJECTIVITY_FLOOR = 0.2
SIMILARITY_AUTO_ACCEPT = 0.5


@dataclass(frozen=True)
class Candidate:
    """A proposed dictionary addition borrowed from a labeled synonym."""

    word: str
    synonym: str
    valence: float
    path_similarity: float


@dataclass(frozen=True)
class Override:
    word: str
    action: str  # accept | adjust | reject
    valence: float | None = None

    def __post_init__(self):
        if self.action not in ("accept", "adjust", "reject"):
            raise ValueError(f"unknown override action {self.action!r}")
        if self.action == "adjust" and self.valence is None:
            raise ValueError(f"adjust override for {self.word!r} needs a valence")


def merge_dictionaries(financial: SentimentDictionary,
                       general: SentimentDictionary,
                       resolutions: dict[str, float] | None = None,
                       ) -> tuple[SentimentDictionary, list[str]]:
    """Union two lexicons; same-sign conflicts defer to the financial one.

    A contradiction is the same lemma carrying strictly opposite signs.
    Resolved contradictions enter with provenance "override"; unresolved
    ones are excluded and listed. Resolutions naming lemmas that are not
    in conflict are warned about and ignored.
    """
    resolutions = {k.lower(): float(v) for k, v in (resolutions or {}).items()}
    entries: dict[str, float] = {}
    provenance: dict[str, str] = {}
    contradictions: list[str] = []

    for lemma, valence in general.items():
        entries[lemma] = valence
        provenance[lemma] = "merged"
    for lemma, valence in financial.items():
        other = entries.get(lemma)
        if other is not None and valence * other < 0.0:
            if lemma in resolutions:
                entries[lemma] = resolutions[lemma]
                provenance[lemma] = "override"
            else:
                contradictions.append(lemma)
                del entries[lemma]
                del provenance[lemma]
            continue
        entries[lemma] = valence  # financial wins same-sign conflicts
        provenance[lemma] = "merged"

    unused = sorted(set(resolutions) - set(contradictions)
                    - {k for k, v in provenance.items() if v == "override"})
    for lemma in unused:
        logger.warning("merge_dictionaries(): resolution for %r matches no "
                       "contradiction", lemma)
    return SentimentDictionary(entries, provenance), sorted(contradictions)


def expand_dictionary(merged: SentimentDictionary,
                      master_lexicon,
                      synonym_graph: dict[str, list[tuple[str, float]]],
                      subjectivity) -> list[Candidate]:
    """Propose labels for master-lexicon words missing from the merge.

    For each unlabeled word, the labeled synonym with the highest path
    similarity donates its valence (ties keep the first listed). Words
    whose subjectivity falls below 0.2 are dropped. `subjectivity` is a
    mapping or callable; missing words default to 0.
    """
    words = sorted({w.lower() for w in master_lexicon})
    if not words:
        raise ValueError("empty master lexicon")
    if callable(subjectivity):
        subj = subjectivity
    else:
        table = {k.lower(): float(v) for k, v in subjectivity.items()}
        subj = lambda w: table.get(w, 0.0)

    candidates: list[Candidate] = []
    for word in words:
        if word in merged:
            continue
        labeled = [(syn.lower(), sim) for syn, sim in synonym_graph.get(word, [])
                   if syn.lower() in merged]
        if not labeled:
            continue
        best_syn, best_sim = labeled[0]
        for syn, sim in labeled[1:]:
            if sim > best_sim:
                best_syn, best_sim = syn, sim
        if subj(word) < SUBJECTIVITY_FLOOR:
            continue
        candidates.append(Candidate(word, best_syn,
                                    float(merged.get(best_syn)), float(best_sim)))
    return candidates


def apply_overrides(candidates: list[Candidate],
                    overrides: dict[str, Override] | list[Override],
                    ) -> tuple[SentimentDictionary, list[Candidate]]:
    """Turn candidates into dictionary additions.

    Similarity >= 0.5 auto-accepts at the synonym's valence (provenance
    "expanded"). Below that an override row must accept, adjust, or
    reject the word; candidates left unreviewed come back in the pending
    list and are excluded.
    """
    if not isinstance(overrides, dict):
        overrides = {o.word.lower(): o for o in overrides}
    else:
        overrides = {k.lower(): v for k, v in overrides.items()}
    known_words = {c.word for c in candidates}
    for word in sorted(set(overrides) - known_words):
        logger.warning("apply_overrides(): override for %r matches no candidate",
                       word)

    entries: dict[str, float] = {}
    provenance: dict[str, str] = {}
    pending: list[Candidate] = []
    for cand in candidates:
        if cand.path_similarity >= SIMILARITY_AUTO_ACCEPT:
            entries[cand.word] = cand.valence
            provenance[cand.word] = "expanded"
            continue
        rule = overrides.get(cand.word)
        if rule is None:
            pending.append(cand)
            continue
        if rule.action == "reject":
            continue
        value = cand.valence if rule.action == "accept" else float(rule.valence)
        entries[cand.word] = value
        provenance[cand.word] = "override"
    if pending:
        logger.warning("apply_overrides(): %d low-similarity candidates pending "
                       "review: %s", len(pending),
                       ", ".join(c.word for c in pending))
    return SentimentDictionary(entries, provenance), pending


def combine(base: SentimentDictionary,
            additions: SentimentDictionary) -> SentimentDictionary:
    """Layer expansion additions over the merged base dictionary."""
    entries = dict(base.items())
    provenance = dict(base.provenance)
    for lemma, valence in additions.items():
        entries[lemma] = valence
        provenance[lemma] = additions.provenance.get(lemma, "expanded")
    return SentimentDictionary(entries, provenance)


def load_synonym_graph(path) -> dict[str, list[tuple[str, float]]]:
    """TSV rows word<TAB>synonym<TAB>path_similarity, file order kept."""
    graph: dict[str, list[tuple[str, float]]] = {}
    for word, synonym, sim in read_tsv(path, lambda word, synonym, similarity: (
            word.lower(), synonym.lower(), _unit(similarity))):
        graph.setdefault(word, []).append((synonym, sim))
    return graph


def load_subjectivity(path) -> dict[str, float]:
    """TSV rows word<TAB>subjectivity."""
    return dict(read_tsv(path, lambda word, subjectivity: (
        word.lower(), _unit(subjectivity))))


def load_word_list(path) -> list[str]:
    """One word per line."""
    words = read_tsv(path, lambda word: word.strip().lower())
    if not words:
        raise DataError(f"{path}: no words")
    return words


def load_overrides(path) -> dict[str, Override]:
    """TSV rows word<TAB>action(accept|adjust|reject)<TAB>valence?."""
    def row(word, action, valence=""):
        word = word.lower()
        return word, Override(word, action, checked_valence(word, valence)
                              if valence else None)
    return dict(read_tsv(path, row))


def load_resolutions(path) -> dict[str, float]:
    """TSV rows lemma<TAB>valence: the valence of a resolved contradiction."""
    return dict(read_tsv(path, lambda lemma, valence: (
        lemma, checked_valence(lemma, valence))))


def _unit(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{value} is not in [0, 1]")
    return value
