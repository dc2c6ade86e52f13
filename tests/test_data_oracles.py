"""The whole-array data path against the scalar code it replaced.

Each oracle below is the per-row, per-cell or per-bar loop that ingest,
``clean``, ``align_events`` and ``preprocess`` ran before they worked on
index arrays and memos. The new code must give the same float64 bytes,
the same masks and the same errors on seeded sparse panels, awkward
event timings and random words.
"""
import string
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from quantgym.errors import DataError, IngestError
from quantgym.features import (
    EventSeries,
    align_events,
    fundamental_effective_from,
)
from quantgym.market_data import (
    BarTable,
    CleaningPolicy,
    _build_table,
    clean,
    ingest_csv,
    merge,
)
from quantgym.sentiment.preprocess import (
    _SENTENCE_RE,
    _TOKEN_RE,
    Document,
    LemmaRules,
    Token,
    _normalize,
    _replace_companies,
    default_abbreviations,
    default_rules,
    preprocess,
)
from quantgym.sentiment.lexicon import packaged

from conftest import assert_bitwise_equal

GRIDS = ("open", "high", "low", "close", "volume")
DAY = 86400


# ---------------------------------------------------------------------------
# oracles: the scalar code


def build_table_oracle(frequency, rows):
    """rows: {(ticker, datetime64): (o, h, l, c, v)}, one cell at a time."""
    tickers = tuple(sorted({k[0] for k in rows}))
    calendar = np.array(sorted({k[1] for k in rows}), dtype="datetime64[s]")
    T, n = len(calendar), len(tickers)
    idx_t = {ts: i for i, ts in enumerate(calendar)}
    idx_k = {tk: j for j, tk in enumerate(tickers)}
    grids = [np.full((T, n), np.nan) for _ in range(5)]
    present = np.zeros((T, n), dtype=bool)
    for (ticker, ts), values in rows.items():
        i, j = idx_t[ts], idx_k[ticker]
        for g, v in zip(grids, values):
            g[i, j] = v
        present[i, j] = True
    return BarTable(frequency, tickers, calendar, grids[0], grids[1],
                    grids[2], grids[3], grids[4], present,
                    np.zeros((T, n), dtype=bool))


def clean_oracle(table, policy):
    """clean() with its per-cell forward/backward fill loop."""
    if table.n_tickers < 1:
        raise DataError("clean() needs at least one ticker")
    if table.n_steps < 2:
        raise DataError("clean() needs at least two timestamps")
    coverage = table.present.mean(axis=0)
    keep = [j for j in range(table.n_tickers) if coverage[j] >= policy.min_coverage]
    dropped = [table.tickers[j] for j in range(table.n_tickers) if j not in keep]
    if not keep:
        raise DataError("all tickers dropped by min_coverage")
    present = table.present[:, keep]
    if policy.calendar_rule == "intersection":
        row_mask = present.all(axis=1)
        if not row_mask.any():
            raise DataError("intersection calendar is empty")
    else:
        row_mask = present.any(axis=1)
    rows = np.flatnonzero(row_mask)
    calendar = table.calendar[rows].copy()
    cols = np.array(keep)

    def take(arr):
        return arr[np.ix_(rows, cols)].copy()

    o, h, l, c = take(table.open), take(table.high), take(table.low), take(table.close)
    v = take(table.volume)
    pres = take(table.present)
    synth = take(table.synthetic)
    filled = 0
    if not pres.all():
        if policy.fill_rule == "drop-ticker":
            keep2 = np.flatnonzero(pres.all(axis=0))
            dropped += [table.tickers[keep[j]] for j in range(len(keep))
                        if j not in set(keep2.tolist())]
            if len(keep2) == 0:
                raise DataError("all tickers dropped by fill_rule=drop-ticker")
            o, h, l, c, v = (arr[:, keep2] for arr in (o, h, l, c, v))
            pres, synth = pres[:, keep2], synth[:, keep2]
            keep = [keep[j] for j in keep2.tolist()]
        else:
            T = len(calendar)
            for j in range(pres.shape[1]):
                last = np.nan
                for t in range(T):
                    if pres[t, j]:
                        last = c[t, j]
                    elif not np.isnan(last):
                        o[t, j] = h[t, j] = l[t, j] = c[t, j] = last
                        v[t, j] = 0.0
                        synth[t, j] = True
                        filled += 1
                first_real = np.flatnonzero(pres[:, j])
                if len(first_real) == 0:
                    raise DataError(
                        f"ticker {table.tickers[keep[j]]} has no bars on the calendar")
                fr = first_real[0]
                for t in range(fr):
                    o[t, j] = h[t, j] = l[t, j] = c[t, j] = c[fr, j]
                    v[t, j] = 0.0
                    synth[t, j] = True
                    filled += 1
            pres = np.ones_like(pres)
    tickers = tuple(table.tickers[j] for j in keep)
    return BarTable(table.frequency, tickers, calendar, o, h, l, c, v,
                    pres.astype(bool), synth.astype(bool),
                    meta={"dropped_tickers": tuple(sorted(dropped)),
                          "filled_cells": filled})


def align_events_oracle(table, events):
    """align_events() masking every event of a ticker for each bar."""
    T, n = table.n_steps, table.n_tickers
    out = np.zeros((T, n))
    index = {tk: j for j, tk in enumerate(table.tickers)}
    per_ticker = {j: [] for j in range(n)}
    for ts, tk, value in sorted(events.events, key=lambda e: (e[0], e[1])):
        j = index.get(tk)
        if j is not None:
            per_ticker[j].append((ts, value))
    cal = table.calendar
    if events.kind == "sentiment":
        freq = np.timedelta64(table.freq_seconds, "s")
        for j, evs in per_ticker.items():
            if not evs:
                continue
            times = np.array([e[0] for e in evs], dtype="datetime64[s]")
            vals = np.array([e[1] for e in evs])
            for t in range(T):
                lo = cal[t - 1] if t > 0 else cal[0] - freq
                mask = (times > lo) & (times <= cal[t])
                if mask.any():
                    out[t, j] = float(vals[mask].mean())
    else:
        for j, evs in per_ticker.items():
            if not evs:
                continue
            eff = np.array([fundamental_effective_from(e[0]) for e in evs],
                           dtype="datetime64[s]")
            vals = np.array([e[1] for e in evs])
            order = np.argsort(eff, kind="stable")
            eff, vals = eff[order], vals[order]
            pos = np.searchsorted(eff, cal, side="right") - 1
            for t in range(T):
                if pos[t] >= 0:
                    out[t, j] = float(vals[pos[t]])
    return out


def preprocess_oracle(text, rules, company_names=()):
    """preprocess() calling uncached _normalize and analyze per token."""
    abbreviations = default_abbreviations()
    name_tokens = []
    for name in company_names:
        toks = [t for t in (_normalize(x) for x in _TOKEN_RE.findall(name)) if t]
        if toks:
            name_tokens.append(toks)
    name_tokens.sort(key=len, reverse=True)
    sentences = []
    for chunk in _SENTENCE_RE.split(text):
        raw_tokens = _TOKEN_RE.findall(chunk)
        if not raw_tokens:
            continue
        normalized = []
        for tok in raw_tokens:
            word = _normalize(tok)
            expansion = abbreviations.get(word)
            if expansion is not None:
                normalized.extend(
                    w for w in map(_normalize, expansion.split()) if w)
            elif word:
                normalized.append(word)
        normalized = _replace_companies(normalized, name_tokens)
        toks = []
        prev_pos = ""
        for word in normalized:
            lemma, pos = rules.analyze(word, prefer_noun=(prev_pos == "VERB"))
            toks.append(Token(word, lemma, pos))
            prev_pos = pos
        if toks:
            sentences.append(tuple(toks))
    return Document(text, tuple(sentences))


# ---------------------------------------------------------------------------
# seeded sparse panels


def assert_tables_bitwise(actual, expected):
    assert actual.frequency == expected.frequency
    assert actual.tickers == expected.tickers
    assert np.array_equal(actual.calendar, expected.calendar)
    assert actual.calendar.dtype == expected.calendar.dtype
    for name in GRIDS:
        assert_bitwise_equal(getattr(actual, name), getattr(expected, name))
    for name in ("present", "synthetic"):
        assert np.array_equal(getattr(actual, name), getattr(expected, name))
    assert actual.meta == expected.meta


def sparse_rows(seed, T=40, n=5, missing=0.2):
    """{(ticker, epoch): values} with random gaps, a leading gap on the
    second ticker and a ticker holding a single bar."""
    rng = np.random.default_rng(seed)
    tickers = [f"T{k}" for k in rng.permutation(n)]
    start = 1_640_995_200 + int(rng.integers(0, 10)) * DAY
    close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, (T, n)), axis=0))
    keep = rng.random((T, n)) >= missing
    keep[: T // 4, 1] = False  # leading gap
    keep[:, 2] = False
    keep[T // 2, 2] = True  # one bar only
    rows = {}
    for t, j in rng.permutation(np.argwhere(keep)):  # insertion order random
        c = float(close[t, j])
        rows[(tickers[j], start + int(t) * DAY)] = (
            c * 1.001, c * 1.01, c * 0.99, c, float(rng.integers(0, 10**6)))
    return rows


def as_datetime_keys(rows):
    return {(tk, np.datetime64(ts, "s")): v for (tk, ts), v in rows.items()}


def with_empty_ticker(table, nan_close_at=None, name="ZZZ"):
    """The table plus a ticker with no bars (and, optionally, a present
    cell whose close is NaN), as only a hand-built BarTable can hold."""
    T = table.n_steps
    grids = [np.column_stack([getattr(table, g), np.full(T, np.nan)])
             for g in GRIDS]
    present = np.column_stack([table.present, np.zeros(T, dtype=bool)])
    if nan_close_at is not None:
        t, j = nan_close_at
        grids[3][t, j] = np.nan
    return BarTable(table.frequency, table.tickers + (name,), table.calendar,
                    *grids, present, np.zeros((T, table.n_tickers + 1), bool))


def build(rows):
    return _build_table("1day", rows, [x for bar in rows.values() for x in bar])


@pytest.mark.parametrize("seed", range(6))
def test_build_table_matches_cell_loop(seed):
    rows = sparse_rows(seed)
    assert_tables_bitwise(_build_table("1day", rows, list(rows.values())),
                          build_table_oracle("1day", as_datetime_keys(rows)))


@pytest.mark.parametrize("seed", range(3))
def test_ingest_matches_cell_loop(seed, tmp_path):
    """Rows in random order, each instant spelled with a random UTC offset,
    so several distinct texts parse to one timestamp."""
    rows = sparse_rows(seed)
    rng = np.random.default_rng(seed)
    lines = ["timestamp,ticker,open,high,low,close,volume"]
    for (tk, ts), bar in rows.items():
        offset = timezone(timedelta(hours=int(rng.integers(-11, 12))))
        text = datetime.fromtimestamp(ts, tz=offset).isoformat()
        lines.append(",".join([text, tk] + [repr(x) for x in bar]))
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_tables_bitwise(ingest_csv(str(path), "1day"),
                          build_table_oracle("1day", as_datetime_keys(rows)))
    (tk, ts), bar = next(iter(rows.items()))
    utc = datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()
    path.write_text("\n".join(lines + [",".join([utc, tk] + ["1"] * 5)]) + "\n")
    with pytest.raises(IngestError, match=f"first seen at {path}:2$"):
        ingest_csv(str(path), "1day")


def test_build_table_of_nothing_is_empty():
    assert_tables_bitwise(_build_table("1h", {}, []), build_table_oracle("1h", {}))


POLICIES = [CleaningPolicy(calendar_rule=cal, fill_rule=fill, min_coverage=cov)
            for cal in ("union", "intersection")
            for fill in ("fill", "drop-ticker")
            for cov in (0.0, 0.5)]


def outcome(fn, table, policy):
    try:
        return fn(table, policy)
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("policy", POLICIES,
                         ids=lambda p: f"{p.calendar_rule}-{p.fill_rule}-"
                                       f"{p.min_coverage}")
@pytest.mark.parametrize("seed", range(4))
def test_clean_matches_cell_loop(seed, policy):
    table = build(sparse_rows(seed, missing=0.1 + 0.1 * seed))
    for variant in (table, with_empty_ticker(table),
                    with_empty_ticker(with_empty_ticker(table, name="YYY")),
                    with_empty_ticker(table, nan_close_at=(5, 0))):
        got, want = outcome(clean, variant, policy), outcome(clean_oracle, variant, policy)
        if isinstance(want, str):
            assert got == want
        else:
            assert_tables_bitwise(got, want)


def test_clean_leading_gap_and_empty_ticker_cases_are_exercised():
    table = build(sparse_rows(0))
    union = CleaningPolicy(calendar_rule="union")
    assert clean(table, union).meta["filled_cells"] > 10
    with pytest.raises(DataError, match="ticker ZZZ has no bars"):
        clean(with_empty_ticker(table), union)
    with pytest.raises(DataError, match="ticker YYY has no bars"):
        clean(with_empty_ticker(with_empty_ticker(table, name="YYY")), union)


def test_merge_of_overlapping_slices_restores_cleaned_table():
    table = clean(build(sparse_rows(3)),
                  CleaningPolicy(calendar_rule="union"))
    half = table.n_steps // 2
    merged = merge([table.slice_steps(half, table.n_steps),
                    table.slice_steps(0, half + 3)])
    for name in GRIDS + ("present", "synthetic"):
        assert_bitwise_equal(getattr(merged, name), getattr(table, name))
    assert merged.synthetic.any()


# ---------------------------------------------------------------------------
# event alignment


def bar_table(T=30, tickers=("AAA", "BBB", "CCC"), frequency="1day",
              step=DAY, start=1_656_633_600):
    cal = np.array([start + t * step for t in range(T)]).astype("datetime64[s]")
    shape = (T, len(tickers))
    grid = np.full(shape, 100.0)
    return BarTable(frequency, tickers, cal, grid, grid, grid, grid,
                    np.zeros(shape), np.ones(shape, bool), np.zeros(shape, bool))


def awkward_events(rng, table):
    """Events on bar boundaries, before the first bar, after the last,
    duplicate timestamps, a crowded bin, signed zeros, a NaN and an
    unknown ticker, in shuffled order."""
    cal = table.calendar.astype(np.int64)
    step = table.freq_seconds
    tickers = table.tickers + ("ZZZ",)
    events = []
    for _ in range(120):
        ts = int(rng.integers(cal[0] - 3 * step, cal[-1] + 3 * step))
        events.append((ts, tickers[rng.integers(len(tickers))], rng.normal()))
    for t in (0, 1, len(cal) // 2, len(cal) - 1):  # exactly on a boundary
        events.append((int(cal[t]), "AAA", rng.normal()))
    events.append((int(cal[0] - step), "AAA", 7.0))  # just outside bar 0
    events.append((int(cal[0] - step) + 1, "AAA", 3.0))  # just inside bar 0
    # duplicate timestamps whose mean depends on the order they are added in
    events += [(int(cal[3]) - 5, "BBB", v) for v in (1e16, 1.0, -1e16, 3.0)]
    events += [(int(cal[7]) - k, "CCC", rng.normal()) for k in range(23)]
    events += [(int(cal[9]), "BBB", -0.0), (int(cal[11]) - 1, "CCC", -0.0),
               (int(cal[11]) - 2, "CCC", -0.0), (int(cal[13]), "AAA", np.nan)]
    events += [(int(cal[-1]) + step, "CCC", 9.0)]  # after the last bar
    order = rng.permutation(len(events))
    return tuple((np.datetime64(events[k][0], "s"), events[k][1], events[k][2])
                 for k in order)


@pytest.mark.parametrize("frequency,step", [("1day", DAY), ("1h", 3600)])
@pytest.mark.parametrize("seed", range(5))
def test_align_sentiment_matches_per_bar_masks(seed, frequency, step):
    rng = np.random.default_rng(seed)
    table = bar_table(frequency=frequency, step=step)
    events = EventSeries(awkward_events(rng, table), "sentiment")
    assert_bitwise_equal(align_events(table, events),
                         align_events_oracle(table, events))


def stamp(text):
    return np.datetime64(text, "s")


# +1 day then +2 months clamps both to September 30 and swaps their order
CLAMPED = ((stamp("2022-07-29T20:00:00"), "AAA", 1.0),
           (stamp("2022-07-30T10:00:00"), "AAA", 2.0))


@pytest.mark.parametrize("seed", range(5))
def test_align_fundamentals_matches_per_bar_lookup(seed):
    rng = np.random.default_rng(seed)
    table = bar_table(start=int(stamp("2022-09-15T00:00:00").astype(np.int64)))
    lag = np.timedelta64(62 * DAY, "s")  # events take effect on the calendar
    events = EventSeries(tuple((ts - lag, tk, v) for ts, tk, v in
                               awkward_events(rng, table)) + CLAMPED,
                         "fundamental")
    assert_bitwise_equal(align_events(table, events),
                         align_events_oracle(table, events))


def test_fundamental_lag_can_reorder_events():
    table = bar_table(start=int(stamp("2022-09-15T00:00:00").astype(np.int64)))
    col = align_events(table, EventSeries(CLAMPED, "fundamental"))[:, 0]
    assert col[15] == 0.0  # September 30, 00:00: neither has taken effect
    assert col[16] == 1.0  # October 1: the earlier event took effect later


def test_align_events_without_bars_or_events():
    table = bar_table()
    for kind in ("sentiment", "fundamental"):
        assert_bitwise_equal(align_events(table, EventSeries((), kind)),
                             np.zeros((table.n_steps, table.n_tickers)))
    empty = bar_table(T=0)
    events = EventSeries(((np.datetime64(0, "s"), "AAA", 1.0),), "sentiment")
    assert align_events(empty, events).shape == (0, 3)


def test_crowded_and_signed_zero_bins_are_exercised():
    table = bar_table()
    events = EventSeries(awkward_events(np.random.default_rng(0), table),
                         "sentiment")
    col = align_events(table, events)
    assert np.isnan(col[13, 0])
    assert col[9, 1].tobytes() == np.float64(0.0).tobytes()  # mean(-0.0)


# ---------------------------------------------------------------------------
# token analysis


def random_words(seed, count=400):
    rng = np.random.default_rng(seed)
    rules = default_rules()
    stems = sorted(rules.lexicon) + sorted(rules.exceptions)
    suffixes = ["", "s", "es", "ies", "ied", "ed", "ing", "ings", "er",
                "est", "ly", "sses", "ches"]
    words = []
    for _ in range(count):
        if rng.random() < 0.5:
            stem = stems[rng.integers(len(stems))]
        else:
            letters = rng.choice(list(string.ascii_lowercase),
                                 rng.integers(1, 8))
            stem = "".join(letters)
        words.append(stem + suffixes[rng.integers(len(suffixes))])
    return words


def fresh_rules():
    return LemmaRules.load(packaged("lemma_rules.tsv"))


def known_words():
    rules = default_rules()
    return sorted(rules.lexicon) + sorted(rules.exceptions) + [
        lemma for lemma, _ in rules.exceptions.values()]


def verb_first_rules():
    """Rules under which prefer_noun changes an analysis: "rallies" reads
    as a VERB first and also as a NOUN. (The shipped rules list their NOUN
    suffixes first, so prefer_noun never changes what they give.)"""
    return LemmaRules({"rally": "VERB", "say": "VERB"},
                      {"rallye": ("rally", "NOUN")},
                      [("VERB", "ies", "y", False), ("NOUN", "ies", "y", False)])


@pytest.mark.parametrize("make_rules", [fresh_rules, verb_first_rules])
def test_token_memo_matches_analyze(make_rules):
    rules = make_rules()
    words = known_words() + random_words(1) + ["rallies", "rallye", "say"]
    for _ in range(2):  # misses, then hits
        for word in words:
            for prefer_noun in (False, True):
                want = Token(word, *rules.analyze(word, prefer_noun))
                assert rules.token(word, prefer_noun) == want, word


def test_prefer_noun_memo_keeps_both_readings():
    text = "Rallies say rallies rallies"
    doc = preprocess(text, rules=verb_first_rules())
    assert [t.pos for t in doc.sentences[0]] == ["VERB", "VERB", "NOUN", "VERB"]
    assert doc == preprocess_oracle(text, verb_first_rules())


def test_normalize_memo_matches_normalize():
    rng = np.random.default_rng(2)
    alphabet = list(string.ascii_letters + string.digits + "'’-_.,$%")
    raw = ["AAPL's", "Q3", "’s", "-", "X-ray", "don't", "EPS", "3rd"] + [
        "".join(rng.choice(alphabet, rng.integers(1, 9))) for _ in range(500)]
    rules = default_rules()
    for token in raw + raw:
        assert rules.normalize(token) == _normalize(token), token


def random_text(rng, words):
    pieces = []
    for _ in range(int(rng.integers(3, 30))):
        word = words[rng.integers(len(words))]
        if rng.random() < 0.3:
            word = word.capitalize()
        pieces.append(word)
        roll = rng.random()
        if roll < 0.1:
            pieces.append(". ")
        elif roll < 0.15:
            pieces.append(f" {int(rng.integers(0, 100))}% ")
        elif roll < 0.2:
            pieces.append(" EPS YoY ")
        else:
            pieces.append(" ")
    return "".join(pieces)


@pytest.mark.parametrize("seed", range(3))
def test_preprocess_matches_uncached_loop(seed):
    rng = np.random.default_rng(seed)
    words = known_words() + random_words(seed)
    names = ["Acme Corp", "Globex"]
    fresh = fresh_rules()
    oracle_rules = default_rules()
    for _ in range(150):
        text = random_text(rng, words)
        if rng.random() < 0.2:
            text += " Acme Corp said."
        for rules in (fresh, default_rules()):
            got = preprocess(text, company_names=names, rules=rules)
            assert got == preprocess_oracle(text, oracle_rules, names), text
