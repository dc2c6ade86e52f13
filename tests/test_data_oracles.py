"""The whole-array data path against the scalar code it replaced.

Each oracle below is the per-row, per-cell or per-bar loop that ingest,
``clean``, ``align_events``, ``preprocess`` and sentence scoring ran
before they worked on index arrays, memos and single passes. The new
code must give the same float64 bytes, the same masks and the same
errors on seeded sparse panels, defective rows, awkward event timings,
random words and random token sequences.
"""
import csv
import itertools
import string
import warnings
from array import array
from datetime import datetime, timedelta, timezone
from math import isfinite

import numpy as np
import pytest

from quantgym import market_data
from quantgym.errors import DataError, IngestError
from quantgym.features import (
    EventSeries,
    align_events,
    fundamental_effective_from,
)
from quantgym.market_data import (
    CSV_HEADER,
    PER_TICKER_HEADER,
    BarTable,
    CleaningPolicy,
    _bar_problem,
    _build_table,
    _ingest_rows,
    clean,
    format_timestamp,
    ingest_csv,
    ingest_dir,
    merge,
    parse_epoch,
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
from quantgym.sentiment.lexicon import (
    SentimentDictionary,
    ShifterTable,
    packaged,
)
from quantgym.sentiment import scoring
from quantgym.sentiment.scoring import (
    TextScorer,
    _sentence_raw,
    score_document,
    token_row,
)

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


def parse_row_oracle(fields, source, line_no, ticker, epochs):
    """(ticker, epoch seconds, (o, h, l, c, v)) of one validated row."""
    offset = 0 if ticker is not None else 1
    expected = len(PER_TICKER_HEADER) if ticker is not None else len(CSV_HEADER)
    if len(fields) != expected:
        raise IngestError(f"expected {expected} fields, got {len(fields)}",
                          source, line_no)
    ts = epochs.get(fields[0])
    if ts is None:
        try:
            ts = epochs[fields[0]] = parse_epoch(fields[0])
        except ValueError as exc:
            raise IngestError(str(exc), source, line_no) from None
    if ticker is None:
        ticker = fields[1]
    if not ticker:
        raise IngestError("empty ticker", source, line_no)
    try:
        values = tuple(map(float, fields[offset + 1:offset + 6]))
    except ValueError:
        raise IngestError("non-numeric price/volume field", source,
                          line_no) from None
    if not all(map(isfinite, values)):
        raise IngestError("non-finite price/volume field", source, line_no)
    problem = _bar_problem(*values)
    if problem:
        raise IngestError(f"{problem} for ({ticker}, {format_timestamp(ts)})",
                          source, line_no)
    return ticker, ts, values


def ingest_rows_oracle(reader, ticker, rows, bars, source):
    """_ingest_rows() calling a per-row parse and _bar_problem per bar."""
    epochs = {}
    for line_no, fields in enumerate(reader, start=2):
        if not fields:
            continue
        tk, ts, values = parse_row_oracle(fields, source, line_no, ticker,
                                          epochs)
        first = rows.setdefault((tk, ts), line_no)
        if first != line_no:
            raise IngestError(
                f"duplicate key ({tk}, {format_timestamp(ts)}), "
                f"first seen at {source}:{first}", source, line_no)
        bars.extend(values)


def sentence_raw_oracle(tokens, dictionary, shifters):
    """_sentence_raw() rescanning the clause before every hit."""
    clause = []
    cid = 0
    for tok in tokens:
        clause.append(cid)
        if tok.pos == "VERB":
            cid += 1
    raw = 0.0
    for i, tok in enumerate(tokens):
        valence = dictionary.get(tok.lemma)
        if valence is None:
            continue
        boost = 0.0
        for j in range(i):
            if clause[j] != clause[i]:
                continue
            boost += shifters.intensifiers.get(tokens[j].lemma, 0.0)
        if valence > 0:
            valence += boost
        elif valence < 0:
            valence -= boost
        negated = any(
            clause[j] == clause[i] and tokens[j].lemma in shifters.negators
            for j in range(max(0, i - shifters.negation_window), i))
        if negated:
            valence *= shifters.negation_factor
        raw += valence
    return raw


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


def strict(ingest, path):
    """``ingest`` of a file or folder with every warning raised: pytest's
    warnings plugin would keep one from reaching ``capsys``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ingest(str(path), "1day")


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
    expected = build_table_oracle("1day", as_datetime_keys(rows))
    assert_tables_bitwise(strict(ingest_csv, path), expected)
    folder = tmp_path / "dir"
    folder.mkdir()
    for ticker in expected.tickers:  # the same rows, one file per ticker
        (folder / f"{ticker}.csv").write_text("\n".join(
            ["timestamp,open,high,low,close,volume"]
            + [",".join([text] + rest)
               for text, tk, *rest in (line.split(",") for line in lines[1:])
               if tk == ticker]) + "\n")
    assert_tables_bitwise(strict(ingest_dir, folder), expected)
    (tk, ts), bar = next(iter(rows.items()))
    utc = datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()
    path.write_text("\n".join(lines + [",".join([utc, tk] + ["1"] * 5)]) + "\n")
    with pytest.raises(IngestError, match=f"first seen at {path}:2$"):
        ingest_csv(str(path), "1day")


def test_build_table_of_nothing_is_empty():
    assert_tables_bitwise(_build_table("1h", {}, []), build_table_oracle("1h", {}))


# ---------------------------------------------------------------------------
# row validation

# valid bars at the edges: equal prices, the largest and a subnormal price,
# signed zero volume
EDGE_BARS = (["5", "5", "5", "5", "0"], ["1", "1e308", "1e-320", "2", "-0.0"])
DEFECTS = ("field count", "timestamp", "empty ticker", "non-numeric",
           "non-finite", "non-positive price", "OHLC ordering",
           "negative volume", "duplicate key")
# the message fragment each defect is reported with
DEFECT_MESSAGES = ("fields, got", "has no UTC offset", "empty ticker",
                   "non-numeric", "non-finite", "non-positive price",
                   "OHLC ordering", "negative volume", "duplicate key")


def panel_fields(seed, combined, n_rows=10):
    """Valid rows as field lists, one instant each, written with a random
    UTC offset; the first rows hold the edge bars."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n_rows):
        offset = timezone(timedelta(hours=int(rng.integers(-11, 12))))
        text = datetime.fromtimestamp(1_640_995_200 + k * DAY,
                                      tz=offset).isoformat()
        if k < len(EDGE_BARS):
            bar = list(EDGE_BARS[k])
        else:
            c = 1.0 + 100.0 * float(rng.random())
            bar = [repr(x) for x in (c * 1.001, c * 1.01, c * 0.99, c,
                                     float(rng.integers(0, 1000)))]
        ticker = [f"T{int(rng.integers(2))}"] if combined else []
        out.append([text] + ticker + bar)
    return out


def with_defect(fields, kind, prior):
    """A copy of the row with one defect; a duplicate takes the key of
    ``prior``, an earlier valid row."""
    f = list(fields)
    o = len(prior) - 5  # the open's index
    if kind == "field count":
        f.append("1")
    elif kind == "timestamp":
        f[0] = "2022-01-03T00:00:00"
    elif kind == "empty ticker":
        f[1] = ""
    elif kind == "non-numeric":
        f[o] = "x"
    elif kind == "non-finite":
        f[o + 1] = "nan"
    elif kind == "non-positive price":
        f[o + 2] = "-0.0"
    elif kind == "OHLC ordering":
        f[o + 1] = "1e-300"  # a high below every open
    elif kind == "negative volume":
        f[o + 4] = "-1"
    else:  # duplicate key
        f[:o] = prior[:o]
    return f


def ingest_outcome(ingest_rows, lines, ticker):
    """(keys with their lines, bar bytes) of one file's rows, or its error."""
    rows, bars = {}, array("d")
    try:
        ingest_rows(csv.reader(lines), ticker, rows, bars, "src.csv")
    except IngestError as exc:
        return str(exc)
    return list(rows.items()), bars.tobytes()


def file_outcome(lines, ticker, root):
    """``ingest_csv`` (or, given a ticker, ``ingest_dir``) of the lines
    written under their header, against the oracle rows of that file: the
    table the oracle rows build, or the error text of both."""
    folder = root / ("csv" if ticker is None else "dir")
    folder.mkdir(exist_ok=True)
    path = folder / ("panel.csv" if ticker is None else f"{ticker}.csv")
    header = CSV_HEADER if ticker is None else PER_TICKER_HEADER
    path.write_text("\n".join([",".join(header)] + lines) + "\n")
    rows, bars = {}, array("d")
    try:
        ingest_rows_oracle(csv.reader(lines), ticker, rows, bars, str(path))
        if ticker is None and not rows:
            raise IngestError("file has no data rows", str(path))
        expected = build_table_oracle("1day", as_datetime_keys(dict(zip(
            rows, np.frombuffer(bars).reshape(-1, 5).tolist()))))
    except IngestError as exc:
        expected = str(exc)
    try:
        got = strict(ingest_csv if ticker is None else ingest_dir,
                     path if ticker is None else folder)
    except IngestError as exc:
        got = str(exc)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected, lines
    else:
        assert_tables_bitwise(got, expected)
    return got


def assert_ingest_matches_oracle(rows, combined, root=None):
    """The row loop against the oracle on the rows; given a folder, the
    file-level ingest of the rows too."""
    lines = [",".join(f) for f in rows]
    ticker = None if combined else "T0"
    got = ingest_outcome(_ingest_rows, lines, ticker)
    assert got == ingest_outcome(ingest_rows_oracle, lines, ticker), lines
    if root is not None:
        file_outcome(lines, ticker, root)
    return got


@pytest.mark.parametrize("combined", [True, False], ids=["csv", "dir"])
@pytest.mark.parametrize("seed", range(3))
def test_ingest_rows_match_per_row_parse(seed, combined, tmp_path):
    rows = panel_fields(seed, combined)
    rows.insert(4, [])  # a blank line is skipped
    keys, _ = assert_ingest_matches_oracle(rows, combined, tmp_path)
    assert len(keys) == len(rows) - 1


@pytest.mark.parametrize("combined", [True, False], ids=["csv", "dir"])
def test_first_of_two_defects_matches_per_row_parse(combined, tmp_path):
    """Every ordered pair of defects, on two lines and on one line, in
    the row loop and in files."""
    base = panel_fields(0, combined)
    kinds = [k for k in DEFECTS if combined or k != "empty ticker"]
    messages = []
    for first, second in itertools.permutations(kinds, 2):
        rows = list(base)
        rows[4] = with_defect(base[4], first, base[2])
        rows[7] = with_defect(base[7], second, base[2])
        messages.append(assert_ingest_matches_oracle(rows, combined,
                                                     tmp_path))
        rows = list(base)
        rows[6] = with_defect(with_defect(base[6], first, base[2]), second,
                              base[2])
        messages.append(assert_ingest_matches_oracle(rows, combined,
                                                     tmp_path))
    for fragment in DEFECT_MESSAGES:
        if combined or fragment != "empty ticker":
            assert any(fragment in m for m in messages), fragment
    assert all(isinstance(m, str) for m in messages)


FIELD_TEXTS = ("1", "2", "0", "-0.0", "-1", "1e-320", "1e308", "nan", "inf",
               "-inf", "x", "")


@pytest.mark.parametrize("combined", [True, False], ids=["csv", "dir"])
def test_bar_checks_match_per_row_parse(combined, tmp_path):
    """Valid bars with up to three fields swapped for edge texts, in the
    row loop and in files."""
    rng = np.random.default_rng(5)
    head = ["2022-01-03T00:00:00+00:00"] + (["AAA"] if combined else [])
    bars = EDGE_BARS + (["1.5", "2", "0.5", "1", "3"],)
    outcomes = set()
    for _ in range(1500):
        bar = list(bars[rng.integers(len(bars))])
        for k in rng.integers(5, size=int(rng.integers(4))):
            bar[k] = FIELD_TEXTS[rng.integers(len(FIELD_TEXTS))]
        got = assert_ingest_matches_oracle([head + bar], combined, tmp_path)
        outcomes.add(got.split(": ")[1].split(" for ")[0]
                     if isinstance(got, str) else "valid")
    assert outcomes == {"valid", "non-numeric price/volume field",
                        "non-finite price/volume field", "non-positive price",
                        "OHLC ordering violated (need low <= open,close <= "
                        "high)", "negative volume"}


BAR = "2022-01-03T00:00:00+00:00,AAA,1.5,2,0.5,1,3"
# second line of a file -> its error after "path:line: " ({n}: the header's
# field count), or None when the file reads as the plain bar does
SPELLINGS = {
    "quoted and padded": (
        '2022-01-03T00:00:00+00:00,"AAA","1.5", 2 ,0.5,"1",\t3', None),
    "no-break spaces": (BAR.replace(",3", ",\u00a03\u00a0"), None),
    "blank of spaces": (" ", "3: expected {n} fields, got 1"),
    "blank of a tab": ("\t", "3: expected {n} fields, got 1"),
    "trailing comma": (BAR + ",", "3: expected {n} fields, got {n1}"),
    "digit grouping": (BAR.replace(",3", ",1_000"),
                       "3: non-numeric price/volume field"),
    "arabic-indic digit": (BAR.replace(",3", ",\u0663"),
                           "3: non-numeric price/volume field"),
    "fullwidth digit": (BAR.replace(",3", ",\uff13"),
                        "3: non-numeric price/volume field"),
}


@pytest.mark.parametrize("combined", [True, False], ids=["csv", "dir"])
@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_file_spellings_read_as_numpy_parses_them(spelling, combined,
                                                   tmp_path, monkeypatch):
    """Quoted fields and whitespace around numbers read; a blank line of
    whitespace, a trailing comma and the number spellings only Python's
    ``float`` reads (``_`` grouping, non-ASCII digits) are refused with
    their line. The row loop words the error of a file the C reader
    refuses, so both refuse the same lines; a file that reads never
    reaches it."""
    second, error = SPELLINGS[spelling]
    lines = [BAR.replace("2022-01-03", "2022-01-04"), second]
    if not combined:
        lines = [line.replace(",AAA,", ",").replace(',"AAA",', ",")
                 for line in lines]
    folder = tmp_path / "dir"
    folder.mkdir()
    path = folder / ("panel.csv" if combined else "AAA.csv")
    header = CSV_HEADER if combined else PER_TICKER_HEADER
    path.write_text("\n".join([",".join(header)] + lines) + "\n")
    ingest, source = (ingest_csv, path) if combined else (ingest_dir, folder)
    if error is not None:
        with pytest.raises(IngestError) as exc:
            strict(ingest, source)
        n = len(header)
        assert str(exc.value) == f"{path}:" + error.format(n=n, n1=n + 1)
        return
    monkeypatch.setattr(market_data, "_ingest_rows", None)
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / path.name).write_text("\n".join(
        [",".join(header)] + lines[:1]
        + [lines[0].replace("2022-01-04", "2022-01-03")]) + "\n")
    assert_tables_bitwise(strict(ingest, source),
                          strict(ingest, plain / path.name if combined
                                 else plain))


def test_header_only_files_read_without_a_warning(tmp_path):
    """``loadtxt`` warns on input without data; the warning must not
    reach stderr."""
    panel = tmp_path / "panel.csv"
    panel.write_text(",".join(CSV_HEADER) + "\n\n")
    with pytest.raises(IngestError, match="file has no data rows"):
        strict(ingest_csv, panel)
    folder = tmp_path / "dir"
    folder.mkdir()
    (folder / "AAA.csv").write_text(",".join(PER_TICKER_HEADER) + "\n")
    assert strict(ingest_dir, folder).tickers == ()
    (folder / "BBB.csv").write_text(
        ",".join(PER_TICKER_HEADER) + "\n"
        + BAR.replace(",AAA,", ",") + "\n")
    assert strict(ingest_dir, folder).tickers == ("BBB",)


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


# ---------------------------------------------------------------------------
# sentence scoring

SCORING_DICTIONARY = SentimentDictionary(
    {"gain": 2.0, "loss": -1.5, "flat": 0.0, "rally": 1.25, "beat": 0.7,
     "plunge": -3.0})


def scoring_shifters(window=3):
    return ShifterTable(
        {"very": 0.3, "slightly": -0.2, "most": 0.55, "rally": 0.1,
         "zero": 0.0},
        frozenset({"not", "never", "fail", "plunge"}), -0.5, window)


# (lemma, pos): hits, intensifiers, negators and verbs, some in two roles
VOCABULARY = (("gain", "NOUN"), ("loss", "NOUN"), ("flat", "ADJ"),
              ("rally", "NOUN"), ("rally", "VERB"), ("beat", "VERB"),
              ("plunge", "VERB"), ("very", "ADV"), ("slightly", "ADV"),
              ("most", "ADV"), ("zero", "ADV"), ("not", "ADV"),
              ("never", "ADV"), ("fail", "VERB"), ("say", "VERB"),
              ("the", "OTHER"), ("stock", "NOUN"))


def sentence(*words):
    """Tokens of "lemma" (a NOUN) or "lemma/POS" words."""
    return tuple(Token(lemma, lemma, pos or "NOUN") for lemma, _, pos in
                 (word.partition("/") for word in words))


def assert_raw_matches_oracle(tokens, shifters):
    got = _sentence_raw(
        [token_row(tok, SCORING_DICTIONARY, shifters) for tok in tokens],
        shifters)
    assert_bitwise_equal(
        got, sentence_raw_oracle(tokens, SCORING_DICTIONARY, shifters))
    return got


@pytest.mark.parametrize("window", [0, 1, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_sentence_raw_matches_clause_rescan(seed, window):
    rng = np.random.default_rng(seed)
    shifters = scoring_shifters(window)
    for _ in range(300):
        picks = rng.integers(len(VOCABULARY), size=int(rng.integers(0, 25)))
        assert_raw_matches_oracle(
            tuple(Token(VOCABULARY[k][0], *VOCABULARY[k]) for k in picks),
            shifters)


def test_text_scorer_keys_rows_on_the_word_before(monkeypatch):
    # under verb-first rules "rallies" after a verb is a NOUN, which does
    # not end its clause, so the boost of the "rally" hit reaches "gain"
    rules = verb_first_rules()
    monkeypatch.setattr(scoring, "default_rules", lambda: rules)
    text = "Very rallies say rallies gain. Rallies rallies gain"
    shifters = scoring_shifters()
    want = score_document(preprocess(text, rules=rules), SCORING_DICTIONARY,
                          shifters)
    got = TextScorer(SCORING_DICTIONARY, shifters).score(text)
    assert_bitwise_equal(got.compound, want.compound)
    assert got.per_sentence == want.per_sentence


@pytest.mark.parametrize("words,expected", [
    ((), 0.0),  # an empty sentence
    (("not", "the", "stock", "gain"), -1.0),  # a negator window tokens back
    (("not", "the", "stock", "the", "gain"), 2.0),  # one further: no reach
    (("not", "say/VERB", "gain"), 2.0),  # a negator before a verb
    (("very", "beat/VERB", "gain"), 3.0),  # a verb hit takes its clause's boost
    (("not", "beat/VERB", "gain"), 1.65),  # ... and its negation
    (("not", "never", "gain"), -1.0),  # two negators negate once
    (("not", "the", "stock", "the", "never", "gain"), -1.0),  # the later one
    (("slightly", "gain"), 1.8),  # a negative intensifier
    (("slightly", "loss"), -1.3),
    (("very", "flat"), 0.0),  # a zero-valence hit takes no boost
    (("not", "flat"), 0.0),  # ... and its negation, -0.0, adds to 0.0
    (("zero", "slightly", "very", "most", "gain"), 2.65),
    # hits that also boost, or also negate
    (("rally", "rally/VERB", "plunge", "gain"), -1.4),
])
def test_sentence_raw_edge_cases(words, expected):
    got = assert_raw_matches_oracle(sentence(*words), scoring_shifters())
    assert got == pytest.approx(expected, abs=1e-12)
