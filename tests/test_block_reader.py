"""Both C-reader paths parse in blocks of ``BLOCK_ROWS`` rows. With
blocks of one to three rows, every file reads as it does in one block:
the same table or events, or the row loop's error with its ``path:line``.
"""
import numpy as np
import pytest

from quantgym import features, market_data
from quantgym.errors import IngestError
from quantgym.features import load_events_csv
from quantgym.market_data import CSV_HEADER, PER_TICKER_HEADER, ingest_csv, \
    ingest_dir

from test_data_oracles import assert_tables_bitwise, event_columns, \
    outcome_of, strict

ONE_BLOCK = 1 << 20


def bar(day, ticker="AAA", close=1.0):
    return (f"2022-01-{day:02d}T00:00:00+00:00,{ticker},"
            f"{close},{close + 1},{close / 2},{close},{day}")


# the rows of a combined market csv after its header; blocks of 1, 2 and
# 3 rows put an edge after every row
MARKET_FILES = {
    "six rows": [bar(d, tk) for d in (3, 4, 5) for tk in ("AAA", "BBB")],
    "seven rows": [bar(d, tk) for d in (3, 4, 5) for tk in ("AAA", "BBB")]
    + [bar(6, "CCC")],
    "blank lines": ["", bar(3), "", "", bar(4, "BBB"), "", bar(5), ""],
    "crlf": [bar(3) + "\r", bar(4, "BBB") + "\r", "\r", bar(5) + "\r"],
    "header only": [],
    "blank lines only": ["", "", "", ""],
    "tickers first seen late": [bar(3, "CCC"), bar(3, "AAA"), bar(4, "CCC"),
                                bar(4, "BBB"), bar(5, "AAA"), bar(5, "BBB")],
    "quoted ticker with a newline": [bar(3), bar(4).replace("AAA", '"A\nB"'),
                                     bar(5).replace("AAA", '"A\nB"'),
                                     bar(6)],
    "quoted volume with a newline": [bar(3), bar(4).replace(",4", ',"4\n"'),
                                     bar(5), bar(6).replace(",6", ',"6\n"')],
    "duplicate key": [bar(3), bar(4), bar(5), bar(3, close=2.0)],
    "bad row in a later block": [bar(3), bar(4), bar(5), bar(6),
                                 bar(7).replace(",7", ",x"), bar(8)],
    "bad timestamp in a later block": [bar(3), bar(4), bar(5),
                                       bar(6).replace("+00:00", "")],
}


def market_outcome(path):
    """The table ``ingest_csv`` reads with every warning raised, or its
    error text."""
    try:
        return strict(ingest_csv, path)
    except IngestError as exc:
        return str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
    else:
        assert_tables_bitwise(got, expected)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MARKET_FILES))
def test_market_file_reads_as_in_one_block(name, rows, tmp_path,
                                           monkeypatch):
    path = tmp_path / "panel.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([",".join(CSV_HEADER)] + MARKET_FILES[name])
                 + "\n")
    monkeypatch.setattr(market_data, "BLOCK_ROWS", ONE_BLOCK)
    expected = market_outcome(path)
    monkeypatch.setattr(market_data, "BLOCK_ROWS", rows)
    assert_same_outcome(market_outcome(path), expected)


def test_block_edges_keep_the_fast_path_and_the_row_loop_errors(
        tmp_path, monkeypatch):
    """Clean files never reach the row loop; a bad row after the first
    block, and a key repeated across an edge, raise the row loop's
    error with its line."""
    monkeypatch.setattr(market_data, "BLOCK_ROWS", 2)
    path = tmp_path / "panel.csv"

    def read(lines):
        path.write_text("\n".join([",".join(CSV_HEADER)] + lines) + "\n")
        return ingest_csv(str(path), "1day")

    with monkeypatch.context() as patched:
        patched.setattr(market_data, "_ingest_rows", None)
        for name in ("six rows", "seven rows", "blank lines", "crlf",
                     "tickers first seen late"):
            read(MARKET_FILES[name])
        assert read(MARKET_FILES["tickers first seen late"]).tickers == (
            "AAA", "BBB", "CCC")
    with pytest.raises(IngestError) as exc:
        read(MARKET_FILES["bad row in a later block"])
    assert str(exc.value) == f"{path}:6: non-numeric price/volume field"
    with pytest.raises(IngestError) as exc:
        read(MARKET_FILES["duplicate key"])
    assert str(exc.value) == (
        f"{path}:5: duplicate key (AAA, 2022-01-03T00:00:00+00:00), "
        f"first seen at {path}:2")
    path.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(IngestError) as exc:
        strict(ingest_csv, path)  # and no warning
    assert str(exc.value) == f"{path}: file has no data rows"


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_ticker_files_read_as_in_one_block(rows, tmp_path, monkeypatch):
    folder = tmp_path / "dir"
    folder.mkdir()
    (folder / "AAA.csv").write_text(",".join(PER_TICKER_HEADER) + "\n")
    for ticker, days in (("BBB", (3, 4, 5, 6)), ("CCC", (5, 3, 4))):
        (folder / f"{ticker}.csv").write_text("\n".join(
            [",".join(PER_TICKER_HEADER)]
            + [bar(d).replace(",AAA,", ",") for d in days]) + "\n")
    monkeypatch.setattr(market_data, "BLOCK_ROWS", ONE_BLOCK)
    expected = strict(ingest_dir, folder)
    monkeypatch.setattr(market_data, "BLOCK_ROWS", rows)
    assert_tables_bitwise(strict(ingest_dir, folder), expected)
    assert expected.tickers == ("BBB", "CCC")


def event(day, ticker, value, hour=0):
    return f"2022-01-{day:02d}T{hour:02d}:00:00+00:00,{ticker},{value}"


EVENTS = [event(3, "AAA", 0.5), event(3, "BBB", -1), event(4, "AAA", 0.25),
          event(3, "AAA", 1e-320, hour=5), event(5, "CCC", -0.0),
          event(4, "BBB", 2), event(3, "AAA", 0.5)]
EVENT_FILES = {
    "spread over blocks": EVENTS,
    "blank lines at the edges": ["", EVENTS[0], "", EVENTS[1], "", ""]
    + EVENTS[2:],
    "crlf": [line + "\r" for line in EVENTS],
    "other offsets": EVENTS + ["2022-01-03T05:30:00+05:30,AAA,3"],
    "header only": [],
    "bad value in a later block": EVENTS[:5] + [event(6, "AAA", "nan")],
    "bad timestamp in a later block": EVENTS[:4] + [
        "2022-01-03T24:00:00+00:00,AAA,1"],
    "field count in a later block": EVENTS[:6] + [EVENTS[0] + ","],
}


def events_outcome(path):
    """The columns ``load_events_csv`` reads with every warning raised,
    or its error text."""
    loaded = outcome_of(load_events_csv, str(path), "sentiment")
    return loaded if isinstance(loaded, str) else event_columns(loaded)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(EVENT_FILES))
def test_events_read_as_in_one_block(name, rows, tmp_path, monkeypatch):
    path = tmp_path / "events.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([features.EVENTS_HEADER] + EVENT_FILES[name])
                 + "\n")
    monkeypatch.setattr(market_data, "BLOCK_ROWS", ONE_BLOCK)
    expected = events_outcome(path)
    monkeypatch.setattr(market_data, "BLOCK_ROWS", rows)
    assert events_outcome(path) == expected
    if name == "spread over blocks":
        series = load_events_csv(str(path), "sentiment")
        assert series.tickers.dtype == object
        assert series.tickers.tolist() == [line.split(",")[1]
                                           for line in EVENTS]
        assert np.array_equal(series.values,
                              [float(line.split(",")[2]) for line in EVENTS])
    elif name.startswith("bad") or name.startswith("field"):
        assert expected.startswith(f"{path}:")
