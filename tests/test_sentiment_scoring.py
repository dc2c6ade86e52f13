"""Document scoring: hand-evaluated compounds and shifter mechanics."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantgym.sentiment import (
    SentimentDictionary,
    ShifterTable,
    TextScorer,
    default_shifters,
    mini_financial_dictionary,
    preprocess,
    normalize_compound,
    score_document,
)
from quantgym.sentiment import scoring
from quantgym.sentiment.preprocess import default_abbreviations, default_rules
from quantgym.sentiment.scoring import LEARN_MIN, MEMO_MAX


def compound_of(total, alpha=15.0):
    return total / math.sqrt(total * total + alpha)


RISE_DICT = SentimentDictionary({"rise": 1.5})
NOT_SHIFTERS = ShifterTable({}, frozenset({"not"}), -0.5)


def test_empty_document_neutral():
    score = score_document(preprocess(""), RISE_DICT, NOT_SHIFTERS)
    assert score.compound == 0.0
    assert score.polarity == "neutral"
    assert score.per_sentence == ()


def test_single_hit_normalization():
    score = score_document(preprocess("profits rise"), RISE_DICT, NOT_SHIFTERS)
    assert score.per_sentence == (1.5,)
    assert score.compound == pytest.approx(compound_of(1.5), abs=1e-12)
    assert score.compound == pytest.approx(0.3612, abs=5e-5)
    assert score.polarity == "positive"


def test_negation_flips_and_damps():
    score = score_document(preprocess("profits do not rise"), RISE_DICT,
                           NOT_SHIFTERS)
    assert score.per_sentence == (-0.75,)
    assert score.compound == pytest.approx(compound_of(-0.75), abs=1e-12)
    assert score.compound == pytest.approx(-0.1901, abs=5e-5)
    assert score.polarity == "negative"


def test_negation_window_limit():
    # negator more than 3 tokens before the hit does not fire
    dictionary = SentimentDictionary({"rise": 1.5})
    shifters = ShifterTable({}, frozenset({"not"}), -0.5)
    doc = preprocess("not the big bad profits rise")
    score = score_document(doc, dictionary, shifters)
    assert score.per_sentence == (1.5,)


def test_intensifier_boost_sign_aligned():
    dictionary = SentimentDictionary({"rise": 1.5, "fall": -1.5})
    shifters = ShifterTable({"significantly": 0.3}, frozenset(), -0.5)
    up = score_document(preprocess("prices significantly rise"), dictionary,
                        shifters)
    assert up.per_sentence == (1.8,)
    down = score_document(preprocess("prices significantly fall"), dictionary,
                          shifters)
    assert down.per_sentence == (-1.8,)


def test_intensifier_scoped_to_clause():
    dictionary = SentimentDictionary({"rise": 1.0})
    shifters = ShifterTable({"significantly": 0.5}, frozenset(), -0.5)
    # the verb "fell" closes the first clause, the boost cannot cross it
    doc = preprocess("significantly fell and prices rise")
    score = score_document(doc, dictionary, shifters)
    assert score.per_sentence == (1.0,)


def test_sentences_aggregate_with_equal_weight():
    dictionary = SentimentDictionary({"rise": 1.0, "fall": -2.0})
    doc = preprocess("prices rise. prices fall.")
    score = score_document(doc, dictionary, NOT_SHIFTERS)
    assert score.per_sentence == (1.0, -2.0)
    assert score.compound == pytest.approx(compound_of(-1.0), abs=1e-12)


def test_sentence_sums_add_left_to_right():
    # Python 3.12's compensated sum gives 1.2 for these three sentences;
    # added left to right from 0.0 they give 1.1999999999999997 everywhere
    dictionary = SentimentDictionary({"rise": 2.9, "fall": -0.85})
    doc = preprocess("prices rise. prices fall. prices fall.")
    score = score_document(doc, dictionary, NOT_SHIFTERS)
    assert score.per_sentence == (2.9, -0.85, -0.85)
    assert score.compound.hex() == normalize_compound(1.1999999999999997).hex()
    assert score.compound != normalize_compound(1.2)


def test_deterministic():
    doc = preprocess("profits rise significantly after record gains")
    d = mini_financial_dictionary()
    s = default_shifters()
    first = score_document(doc, d, s)
    for _ in range(5):
        assert score_document(doc, d, s) == first


def test_empty_dictionary_rejected():
    with pytest.raises(ValueError, match="empty"):
        score_document(preprocess("hi"), SentimentDictionary({}), NOT_SHIFTERS)


def test_compound_bounds_on_fixture_corpus():
    d = mini_financial_dictionary()
    s = default_shifters()
    texts = ["surge soar rally boom win" * 10, "crash plunge slump bust" * 10,
             "nothing here"]
    for text in texts:
        score = score_document(preprocess(text), d, s)
        assert -1.0 <= score.compound <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(
    ["rise", "fall", "gain", "loss", "profit", "the", "market", "and"]),
    min_size=0, max_size=25))
def test_compound_always_bounded(words):
    d = mini_financial_dictionary()
    s = default_shifters()
    score = score_document(preprocess(" ".join(words)), d, s)
    assert -1.0 <= score.compound <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(
    ["rise", "fall", "market", "profit", "loss", "the"]),
    min_size=0, max_size=12))
def test_appending_positive_token_never_decreases_compound(words):
    """S/sqrt(S^2+alpha) is increasing in S, so a shifter-free positive
    append cannot lower the compound."""
    d = mini_financial_dictionary()
    shifters = ShifterTable({}, frozenset(), -0.5)  # no shifters can fire
    base_text = " ".join(words)
    base = score_document(preprocess(base_text), d, shifters)
    longer = score_document(preprocess(base_text + " gain"), d, shifters)
    assert longer.compound >= base.compound - 1e-15


def test_monotone_in_total():
    d = SentimentDictionary({"gain": 1.3})
    s = ShifterTable({}, frozenset(), -0.5)
    compounds = [
        score_document(preprocess(" ".join(["gain"] * k)), d, s).compound
        for k in range(6)]
    assert compounds == sorted(compounds)
    assert all(np.diff(compounds) > 0)


# the text path against score_document(preprocess(text)): headline-like
# text mixing abbreviations, shifters, verbs, dictionary hits, digits,
# possessives, terminator runs inside and at the end of a piece, and
# every kind of whitespace

def headline_words():
    shifters, rules = default_shifters(), default_rules()
    verbs = [w for w, pos in rules.lexicon.items() if pos == "VERB"]
    return sorted({*default_abbreviations(), *shifters.negators,
                   *shifters.intensifiers, *verbs, *rules.exceptions,
                   *mini_financial_dictionary().entries,
                   "rallies", "rallied", "gains", "profits", "soared",
                   "beats", "developed", "the", "stock", "shares", "and",
                   "company", "12", "3.5%", "Q3", "x1", "2024", "$", "-",
                   "U.S.", "a.b", ".!?", ";;", "x;y", "gain.!", "fell;"})


HEADLINE_WORDS = headline_words()
SEPARATORS = (" ", " ", " ", " ", ". ", "! ", "? ", "; ", ", ", "... ",
              "\n", " - ", "", "'", "’", "\t", "\r", "\x0b", "\x0c",
              "\x1c", "\x85", "\xa0", "\u2028", "\u3000", " \t ", ".\t",
              "?\xa0", ";\u2028", "!\x85", ".\u3000")


@st.composite
def headline_texts(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 25))):
        word = draw(st.sampled_from(HEADLINE_WORDS))
        case = draw(st.sampled_from((str.lower, str.upper, str.capitalize)))
        suffix = draw(st.sampled_from(("", "", "", "'s", "’s")))
        pieces.append(case(word) + suffix + draw(st.sampled_from(SEPARATORS)))
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(st.lists(headline_texts(), min_size=1, max_size=4),
       st.sampled_from((0, 1, 3, LEARN_MIN)))
@example(["Shares did not rise and profits never fell"], LEARN_MIN)
@example(["Extremely weak sales fell and profits rise"], 0)  # clause cut
@example(["Stock hits ATH after the CEO's EPS beat YoY"], 1)  # expansions
@example([""], 0)
@example(["\n. ! ;"], 0)
@example(["U.S. shares rise", "Shares rise U.S.", "a.b;;x;y fell .!?"], 0)
@example(["Shares rise. Profits fell; loss", "Shares rise. Profits fell."], 1)
def test_text_scorer_matches_score_document(texts, learn_min):
    # one scorer for every text, so entries one text memoizes serve the
    # next; the texts twice, through memo misses and then hits. Little
    # credit sends a line to the per-sentence path at a miss, from any
    # piece on, after pieces served from the memo or learned
    dictionary, shifters = mini_financial_dictionary(), default_shifters()
    with mock.patch.object(scoring, "LEARN_MIN", learn_min):
        scorer = TextScorer(dictionary, shifters)
    assert_scores_match(scorer, texts * 2)


def assert_scores_match(scorer, texts):
    for text in texts:
        want = score_document(preprocess(text), scorer.dictionary,
                              scorer.shifters)
        got = scorer.score(text)
        assert repr(got.compound) == repr(want.compound)
        assert got.polarity == want.polarity
        assert got.per_sentence == want.per_sentence


def test_text_scorer_learns_pieces_only_on_credit(monkeypatch):
    monkeypatch.setattr(scoring, "LEARN_MIN", 0)
    scorer = TextScorer(mini_financial_dictionary(), default_shifters())

    def memoized():
        return set(scorer._memo[0]) | set(scorer._memo[1])

    # no credit: the line is tokenized per sentence; its one-token
    # pieces are memoized as raw tokens, its others not at all
    assert_scores_match(scorer, ["Profits rise x1 rise."])
    assert {"Profits", "rise", "x"} <= memoized()
    assert not {"x1", "rise.", "1", "."} & memoized()
    # a line served whole earns one piece per piece: here "rise." but
    # not "x1" after it, from which the line is tokenized per sentence
    assert_scores_match(scorer, ["Profits", "rise. x1 Profits"])
    assert "rise." in memoized() and "x1" not in memoized()


@pytest.mark.parametrize("learn_min", [0, 4 * MEMO_MAX])
def test_scoring_memos_stay_bounded(monkeypatch, learn_min):
    # more distinct raw tokens and pieces than a memo keeps, among ones
    # that score; with and without credit to learn every piece
    monkeypatch.setattr(scoring, "LEARN_MIN", learn_min)
    rules = default_rules()
    scorer = TextScorer(mini_financial_dictionary(), default_shifters())
    memos = (*scorer._memo, rules._normalized, rules._tokens)

    def word(n):  # a distinct lower-case word per n
        letters = "zq"
        while n:
            n, k = divmod(n, 26)
            letters += chr(ord("a") + k)
        return letters

    n_words = MEMO_MAX + 1000
    texts = [" ".join(f"{word(n)} {n}%" if n % 50 else
                      f"Profits rise {word(n)}; never fell"
                      for n in range(n_words)),
             "Shares did not rise 99999999% and 88888888 fell."]
    for text in texts + texts:
        assert_scores_match(scorer, [text])
        assert all(0 < len(memo) <= MEMO_MAX for memo in memos)


# credit runs out at each piece in turn, so the rest of the line carries
# on a negation window or a clause's boosts from the pieces learned
CREDIT_EDGE_TEXTS = ("Profits did not very strongly rise. Shares gain",
                     "Sales never rise x1 and very gain; not x2 strong gain",
                     "Extremely weak profits. Not x3 sharply fell")


@pytest.mark.parametrize("learn_min", range(10))
def test_credit_running_out_mid_clause_keeps_its_shifters(monkeypatch,
                                                          learn_min):
    monkeypatch.setattr(scoring, "LEARN_MIN", learn_min)
    scorer = TextScorer(mini_financial_dictionary(), default_shifters())
    assert_scores_match(scorer, CREDIT_EDGE_TEXTS)
    assert scorer._credit == 0


def test_memo_emptied_mid_line_and_mid_corpus(monkeypatch):
    monkeypatch.setattr(scoring, "MEMO_MAX", 3)
    scorer = TextScorer(mini_financial_dictionary(), default_shifters())
    texts = [*CREDIT_EDGE_TEXTS, "Shares did not rise x4 and profits fell",
             "Stock hits ATH after the CEO's EPS beat YoY"]
    assert_scores_match(scorer, texts + texts)
    assert all(len(table) <= 3 for table in scorer._memo)


@pytest.mark.parametrize("text", ["", "12 3.5% $ -", ". ! ? ;", "...!!",
                                  " ;; \t.\n", "1 . 2"])
def test_lines_without_words_score_no_sentence(text):
    scorer = TextScorer(mini_financial_dictionary(), default_shifters())
    assert_scores_match(scorer, [text, text])
    assert scorer.score(text).per_sentence == ()
    assert repr(scorer.score(text).compound) == "0.0"


def test_text_scorer_rejects_an_empty_dictionary():
    with pytest.raises(ValueError, match="empty"):
        TextScorer(SentimentDictionary({}), NOT_SHIFTERS)


@pytest.mark.parametrize("boost", [4.5, -4.5, 1e200, 1e308, float("inf"),
                                   float("nan")])
def test_boost_outside_the_valence_range_rejected(boost):
    with pytest.raises(ValueError, match="boost for 'significantly'"):
        ShifterTable({"significantly": boost}, frozenset(), -0.5)


def test_boost_at_the_valence_bounds_accepted():
    shifters = ShifterTable({"very": 4.0, "barely": -4.0}, frozenset(), -0.5)
    assert shifters.intensifiers == {"very": 4.0, "barely": -4.0}
