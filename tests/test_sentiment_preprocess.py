"""Preprocessing stages: tokenization through lemmatization."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantgym.sentiment import COMPANY_TOKEN, preprocess


def lemmas(doc):
    return [lemma for sent in doc.lemma_sentences() for lemma in sent]


def test_empty_text_gives_empty_document():
    doc = preprocess("")
    assert doc.sentences == ()
    assert doc.n_tokens == 0


def test_company_name_neutralized():
    doc = preprocess("BestBuy beats estimates", company_names=["BestBuy"])
    assert lemmas(doc) == [COMPANY_TOKEN, "beat", "estimate"]


def test_multiword_company_name():
    doc = preprocess("Best Buy shares rise", company_names=["Best Buy"])
    assert lemmas(doc) == [COMPANY_TOKEN, "share", "rise"]


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
    assert doc.lemma_sentences() == [["profit", "rise"], ["share", "fall"]]


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
    assert doc.n_tokens == sum(len(s) for s in doc.sentences)
    assert len(doc.sentences) == 2


def test_idempotent_on_own_output():
    text = ("BestBuy significantly beats estimates. "
            "Shares rose 12% after the developed products launched!")
    doc = preprocess(text, company_names=["BestBuy"])
    rejoined = ". ".join(" ".join(s) for s in doc.lemma_sentences())
    again = preprocess(rejoined, company_names=["BestBuy"])
    assert again.lemma_sentences() == doc.lemma_sentences()


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=120))
@example("AAINGS")  # guessed lemma aaing used to reduce again to aa
@example("Q-")  # abbreviation lookups see the normalized token: q -> quarter
@example("CEO's")
def test_idempotence_property(text):
    doc = preprocess(text)
    rejoined = ". ".join(" ".join(s) for s in doc.lemma_sentences())
    again = preprocess(rejoined)
    assert again.lemma_sentences() == doc.lemma_sentences()


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=120))
def test_never_crashes_and_lowercase(text):
    doc = preprocess(text)
    for sent in doc.sentences:
        for tok in sent:
            assert tok.lemma == tok.lemma.lower()
