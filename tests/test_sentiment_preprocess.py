"""Preprocessing stages: tokenization through lemmatization."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantgym.sentiment import LemmaRules, preprocess
from quantgym.sentiment.preprocess import default_rules


def lemma_sentences(doc):
    return [[tok.lemma for tok in sent] for sent in doc.sentences]


def lemmas(doc):
    return [tok.lemma for sent in doc.sentences for tok in sent]


def test_empty_text_gives_empty_document():
    doc = preprocess("")
    assert doc.sentences == ()
    assert sum(len(s) for s in doc.sentences) == 0


def test_developed_lemmatized_as_verb():
    doc = preprocess("The company developed new products")
    toks = {t.text: (t.lemma, t.pos) for t in doc.sentences[0]}
    assert toks["developed"] == ("develop", "VERB")


def test_noun_keeps_its_own_lemma():
    doc = preprocess("development of the market")
    toks = {t.text: t.lemma for t in doc.sentences[0]}
    assert toks["development"] == "development"


def test_numbers_and_punctuation_removed():
    doc = preprocess("Profits rise 23.5%, shares up!!!")
    assert lemmas(doc) == ["profit", "rise", "share", "up"]
    assert len(doc.sentences) == 1  # the decimal point is not a boundary


def test_lowercasing():
    doc = preprocess("PROFITS Rise")
    assert lemmas(doc) == ["profit", "rise"]


def test_sentence_splitting():
    doc = preprocess("Profits rise. Shares fall.")
    assert len(doc.sentences) == 2
    assert lemma_sentences(doc) == [["profit", "rise"], ["share", "fall"]]


def test_abbreviation_expansion():
    doc = preprocess("Stock hits ATH")
    assert lemmas(doc)[-2:] == ["time", "high"]


def test_custom_abbreviations():
    doc = preprocess("Revenue dn sharply", abbreviations={"dn": "down"})
    assert "down" in lemmas(doc)


def test_irregular_verbs():
    doc = preprocess("Shares rose then fell")
    out = lemmas(doc)
    assert "rise" in out and "fall" in out


def test_sentences_cover_tokens_without_overlap():
    doc = preprocess("One two three. Four five.")
    assert [len(s) for s in doc.sentences] == [3, 2]
    assert lemmas(doc) == ["one", "two", "three", "four", "five"]


def test_idempotent_on_own_output():
    text = ("BestBuy significantly beats estimates. "
            "Shares rose 12% after the developed products launched!")
    doc = preprocess(text)
    rejoined = ". ".join(" ".join(s) for s in lemma_sentences(doc))
    again = preprocess(rejoined)
    assert lemma_sentences(again) == lemma_sentences(doc)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=120))
@example("AAINGS")  # guessed lemma aaing used to reduce again to aa
@example("Q-")  # abbreviation lookups see the normalized token: q -> quarter
@example("CEO's")
def test_idempotence_property(text):
    doc = preprocess(text)
    rejoined = ". ".join(" ".join(s) for s in lemma_sentences(doc))
    again = preprocess(rejoined)
    assert lemma_sentences(again) == lemma_sentences(doc)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=120))
def test_never_crashes_and_lowercase(text):
    doc = preprocess(text)
    for sent in doc.sentences:
        for tok in sent:
            assert tok.lemma == tok.lemma.lower()


def conflicting_rules():
    """Two rule sets that lemmatize and tag the same words differently."""
    verbs = LemmaRules({"rally": "VERB"}, {"shares": ("share", "NOUN")},
                       [("VERB", "ing", "", False)])
    nouns = LemmaRules({"rally": "NOUN", "rallying": "ADJ"},
                       {"shares": ("stake", "VERB")},
                       [("NOUN", "s", "", False)])
    return verbs, nouns


TEXT = "Shares rally. Rallying shares rally!"


def tagged(doc):
    return [[(t.text, t.lemma, t.pos) for t in s] for s in doc.sentences]


def test_memos_belong_to_their_rules():
    verbs, nouns = conflicting_rules()
    want_verbs = [[("shares", "share", "NOUN"), ("rally", "rally", "VERB")],
                  [("rallying", "rally", "VERB"), ("shares", "share", "NOUN"),
                   ("rally", "rally", "VERB")]]
    want_nouns = [[("shares", "stake", "VERB"), ("rally", "rally", "NOUN")],
                  [("rallying", "rallying", "ADJ"), ("shares", "stake", "VERB"),
                   ("rally", "rally", "NOUN")]]
    assert tagged(preprocess(TEXT, rules=verbs)) == want_verbs
    assert tagged(preprocess(TEXT, rules=nouns)) == want_nouns
    verbs, nouns = conflicting_rules()  # fresh memos, the other order
    assert tagged(preprocess(TEXT, rules=nouns)) == want_nouns
    assert tagged(preprocess(TEXT, rules=verbs)) == want_verbs
    assert tagged(preprocess(TEXT, rules=nouns)) == want_nouns


def test_custom_rules_leave_the_default_rules_alone():
    before = tagged(preprocess(TEXT))
    size = len(default_rules()._tokens)
    for rules in conflicting_rules():
        preprocess(TEXT, rules=rules)
    assert tagged(preprocess(TEXT)) == before
    assert len(default_rules()._tokens) == size
    assert ("shares", "stake", "VERB") not in tagged(preprocess(TEXT))[0]
