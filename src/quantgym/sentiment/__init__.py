"""Lexicon-based financial sentiment scoring and dictionary construction."""

from .dictionary import (
    Candidate,
    Override,
    apply_overrides,
    combine,
    expand_dictionary,
    load_overrides,
    load_resolutions,
    load_subjectivity,
    load_synonym_graph,
    load_word_list,
    merge_dictionaries,
)
from .evaluate import EvalResult, LabeledCorpus, evaluate, label_polarity
from .lexicon import (
    SentimentDictionary,
    ShifterTable,
    default_shifters,
    mini_financial_dictionary,
    mini_general_dictionary,
    packaged,
)
from .preprocess import COMPANY_TOKEN, Document, LemmaRules, Token, preprocess
from .scoring import (
    COMPOUND_ALPHA,
    SentimentScore,
    TextScorer,
    normalize_compound,
    polarity_of,
    score_document,
)

__all__ = [
    "COMPANY_TOKEN",
    "COMPOUND_ALPHA",
    "Candidate",
    "Document",
    "EvalResult",
    "LabeledCorpus",
    "LemmaRules",
    "Override",
    "SentimentDictionary",
    "SentimentScore",
    "ShifterTable",
    "TextScorer",
    "Token",
    "apply_overrides",
    "combine",
    "default_shifters",
    "evaluate",
    "expand_dictionary",
    "label_polarity",
    "load_overrides",
    "load_resolutions",
    "load_subjectivity",
    "load_synonym_graph",
    "load_word_list",
    "merge_dictionaries",
    "mini_financial_dictionary",
    "mini_general_dictionary",
    "normalize_compound",
    "packaged",
    "polarity_of",
    "preprocess",
    "score_document",
]
