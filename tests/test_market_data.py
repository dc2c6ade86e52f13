import os
import threading

import numpy as np
import pytest

from quantgym.errors import DataError, IngestError, MergeConflictError, SplitError
from quantgym.market_data import (
    BarTable,
    CleaningPolicy,
    SplitSpec,
    clean,
    ingest_csv,
    ingest_dir,
    merge,
    split,
    to_datetime64,
    write_csv,
)

from conftest import make_table, tables_equal

HEADER = "timestamp,ticker,open,high,low,close,volume\n"


def day(i):
    return f"2022-01-{3 + i:02d}T00:00:00+00:00"


def row(i, ticker, close, volume=1000):
    return f"{day(i)},{ticker},{close},{close * 1.01},{close * 0.99},{close},{volume}\n"


def write(tmp_path, text, name="market.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestIngest:
    def test_complete_file(self, tmp_path):
        text = HEADER + "".join(
            row(i, tk, 100 + i) for tk in ("AAPL", "MSFT") for i in range(3))
        table = ingest_csv(write(tmp_path, text), "1day")
        assert table.n_steps == 3
        assert table.n_tickers == 2
        assert table.tickers == ("AAPL", "MSFT")
        assert table.dense

    def test_duplicate_key_rejected(self, tmp_path):
        text = HEADER + row(0, "AAPL", 100) + row(1, "AAPL", 101) + row(0, "AAPL", 100)
        path = write(tmp_path, text)
        with pytest.raises(IngestError, match=r"duplicate key \(AAPL") as err:
            ingest_csv(path, "1day")
        assert str(err.value) == (
            f"{path}:4: duplicate key (AAPL, 2022-01-03T00:00:00+00:00), "
            f"first seen at {path}:2")

    def test_duplicate_key_in_ticker_file_names_that_file(self, tmp_path):
        folder = tmp_path / "bars"
        folder.mkdir()
        header = "timestamp,open,high,low,close,volume\n"
        (folder / "AAA.csv").write_text(header + f"{day(0)},1,1,1,1,0\n")
        (folder / "BBB.csv").write_text(
            header + f"{day(0)},1,1,1,1,0\n\n{day(0)},2,2,2,2,0\n")
        with pytest.raises(IngestError) as err:
            ingest_dir(str(folder), "1day")
        bbb = folder / "BBB.csv"
        assert str(err.value) == (
            f"{bbb}:4: duplicate key (BBB, 2022-01-03T00:00:00+00:00), "
            f"first seen at {bbb}:2")
        assert err.value.line_no == 4

    @pytest.mark.parametrize("fields", [
        "nan,nan,nan,nan,10", "1,1,1,1,nan", "1,inf,1,1,10", "1,1,1,1,-inf",
        "1,1,-inf,1,10", "NaN,1,1,1,10", "1,1,1,1,Infinity"])
    def test_non_finite_field_rejected(self, tmp_path, fields):
        text = HEADER + row(0, "AAPL", 100) + f"{day(1)},AAPL,{fields}\n"
        path = write(tmp_path, text)
        with pytest.raises(IngestError) as err:
            ingest_csv(path, "1day")
        assert str(err.value) == f"{path}:3: non-finite price/volume field"
        assert err.value.line_no == 3

    def test_non_finite_field_rejected_in_ticker_file(self, tmp_path):
        folder = tmp_path / "bars"
        folder.mkdir()
        (folder / "AAA.csv").write_text(
            "timestamp,open,high,low,close,volume\n" f"{day(0)},1,1,1,1,nan\n")
        with pytest.raises(IngestError) as err:
            ingest_dir(str(folder), "1day")
        assert str(err.value) == (
            f"{folder / 'AAA.csv'}:2: non-finite price/volume field")

    def test_non_positive_price_rejected(self, tmp_path):
        bad = f"{day(1)},AAPL,1,1,0,0,10\n"
        text = HEADER + row(0, "AAPL", 100) + bad
        with pytest.raises(IngestError, match="non-positive price"):
            ingest_csv(write(tmp_path, text), "1day")

    def test_unparsable_timestamp(self, tmp_path):
        text = HEADER + "yesterday,AAPL,1,1,1,1,0\n"
        with pytest.raises(IngestError, match="unparsable timestamp"):
            ingest_csv(write(tmp_path, text), "1day")

    def test_offsetless_timestamp_rejected(self, tmp_path):
        text = HEADER + "2022-01-03T00:00:00,AAPL,1,1,1,1,0\n"
        with pytest.raises(IngestError, match="no UTC offset"):
            ingest_csv(write(tmp_path, text), "1day")

    def test_malformed_row_reports_line(self, tmp_path):
        text = HEADER + row(0, "AAPL", 100) + "not,enough,fields\n"
        path = write(tmp_path, text)
        with pytest.raises(IngestError) as err:
            ingest_csv(path, "1day")
        assert str(err.value) == f"{path}:3: expected 7 fields, got 3"

    def test_timestamp_out_of_range_in_utc_reports_line(self, tmp_path):
        # valid ISO text whose offset moves it before year 1 in UTC
        text = HEADER + row(0, "AAPL", 100) + \
            "0001-01-01T00:00:00+01:00,AAPL,1,1,1,1,1\n"
        path = write(tmp_path, text)
        with pytest.raises(IngestError) as err:
            ingest_csv(path, "1day")
        assert str(err.value) == (f"{path}:3: timestamp "
                                  f"'0001-01-01T00:00:00+01:00' is out of "
                                  f"range in UTC")

    def test_ohlc_ordering_enforced(self, tmp_path):
        bad = f"{day(0)},AAPL,100,99,98,100,10\n"  # high < open
        with pytest.raises(IngestError, match="OHLC ordering"):
            ingest_csv(write(tmp_path, HEADER + bad), "1day")

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "time,tic,o,h,l,c,v\n")
        with pytest.raises(IngestError) as err:
            ingest_csv(path, "1day")
        assert str(err.value) == (
            f"{path}:1: bad header ['time', 'tic', 'o', 'h', 'l', 'c', 'v'], "
            f"expected timestamp,ticker,open,high,low,close,volume")

    def test_bad_header_in_ticker_file_names_that_file(self, tmp_path):
        folder = tmp_path / "bars"
        folder.mkdir()
        (folder / "AAA.csv").write_text("time,o,h,l,c,v\n")
        with pytest.raises(IngestError) as err:
            ingest_dir(str(folder), "1day")
        assert str(err.value) == (
            f"{folder / 'AAA.csv'}:1: bad header ['time', 'o', 'h', 'l', 'c', "
            f"'v'], expected timestamp,open,high,low,close,volume")

    def test_file_without_rows_is_named(self, tmp_path):
        path = write(tmp_path, HEADER)
        with pytest.raises(IngestError) as err:
            ingest_csv(path, "1day")
        assert str(err.value) == f"{path}: file has no data rows"

    def test_timezone_normalized_to_utc(self, tmp_path):
        text = HEADER + f"2022-01-03T09:30:00-05:00,AAPL,1,1.1,0.9,1,5\n"
        table = ingest_csv(write(tmp_path, text), "1min")
        assert str(table.calendar[0]) == "2022-01-03T14:30:00"

    def test_per_ticker_directory(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "AAPL.csv").write_text(
            "timestamp,open,high,low,close,volume\n"
            f"{day(0)},1,1.1,0.9,1,5\n")
        (d / "MSFT.csv").write_text(
            "timestamp,open,high,low,close,volume\n"
            f"{day(0)},2,2.2,1.8,2,5\n")
        table = ingest_dir(str(d), "1day")
        assert table.tickers == ("AAPL", "MSFT")
        assert table.n_steps == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_once(self, tmp_path):
        """A pipe cannot be read twice, so its rows go through the row
        loop alone: a good pipe reads as the file, a bad row names its
        line."""
        good = HEADER + row(0, "A", 2.0) + row(1, "A", 3.0)
        bad = good + row(2, "A", 4.0).replace(",1000", ",1_000")
        pipe = str(tmp_path / "pipe.csv")
        os.mkfifo(pipe)

        def feed(text):
            with open(pipe, "w") as fh:
                fh.write(text)

        outcomes = []
        for text in (good, bad):
            writer = threading.Thread(target=feed, args=(text,), daemon=True)
            writer.start()
            try:
                outcomes.append(ingest_csv(pipe, "1day"))
            except IngestError as exc:
                outcomes.append(str(exc))
            writer.join(timeout=30)
        assert tables_equal(outcomes[0],
                            ingest_csv(write(tmp_path, good), "1day"))
        assert outcomes[1] == f"{pipe}:4: non-numeric price/volume field"

    def test_round_trip(self, tmp_path):
        text = HEADER + "".join(
            row(i, tk, 100.25 + i * 0.125) for tk in ("A", "B") for i in range(4))
        table = ingest_csv(write(tmp_path, text), "1day")
        out = tmp_path / "out.csv"
        write_csv(table, str(out))
        again = ingest_csv(str(out), "1day")
        assert tables_equal(table, again)


class TestClean:
    def sparse_table(self, tmp_path):
        text = HEADER
        for i in range(3):
            text += row(i, "A", 100 + i)
        text += row(0, "B", 50) + row(2, "B", 52)  # B missing day 1
        return ingest_csv(write(tmp_path, text), "1day")

    def test_forward_fill(self, tmp_path):
        table = self.sparse_table(tmp_path)
        cleaned = clean(table, CleaningPolicy(calendar_rule="union"))
        j = cleaned.tickers.index("B")
        assert cleaned.dense
        for grid in (cleaned.open, cleaned.high, cleaned.low, cleaned.close):
            assert grid[1, j] == 50.0  # previous close
        assert cleaned.volume[1, j] == 0.0
        assert cleaned.synthetic[1, j]
        assert not cleaned.synthetic[0, j]

    def test_backward_fill_leading_gap(self, tmp_path):
        text = HEADER + row(0, "A", 100) + row(1, "A", 101) + row(1, "B", 51)
        table = ingest_csv(write(tmp_path, text), "1day")
        cleaned = clean(table, CleaningPolicy(calendar_rule="union"))
        j = cleaned.tickers.index("B")
        assert cleaned.close[0, j] == 51.0
        assert cleaned.synthetic[0, j]

    def test_intersection_calendar(self, tmp_path):
        table = self.sparse_table(tmp_path)
        cleaned = clean(table, CleaningPolicy(calendar_rule="intersection"))
        assert cleaned.n_steps == 2  # days 1 and 3
        assert cleaned.dense
        assert not cleaned.synthetic.any()

    def test_min_coverage_drops_and_reports(self, tmp_path):
        table = self.sparse_table(tmp_path)  # B covers 2/3
        cleaned = clean(table, CleaningPolicy(min_coverage=0.9))
        assert cleaned.tickers == ("A",)
        assert cleaned.meta["dropped_tickers"] == ("B",)

    def test_drop_ticker_fill_rule(self, tmp_path):
        table = self.sparse_table(tmp_path)
        cleaned = clean(table, CleaningPolicy(calendar_rule="union",
                                              fill_rule="drop-ticker"))
        assert cleaned.tickers == ("A",)

    def test_all_dropped_is_error(self, tmp_path):
        text = HEADER + row(0, "A", 100) + row(1, "A", 101) \
            + row(1, "B", 50) + row(2, "B", 51)  # both cover 2/3
        table = ingest_csv(write(tmp_path, text), "1day")
        with pytest.raises(DataError, match="all tickers dropped"):
            clean(table, CleaningPolicy(min_coverage=0.9))

    def test_idempotent(self, tmp_path):
        table = self.sparse_table(tmp_path)
        policy = CleaningPolicy(calendar_rule="union")
        once = clean(table, policy)
        twice = clean(once, policy)
        assert tables_equal(once, twice)

    def test_cleaned_bars_satisfy_ohlc(self, tmp_path):
        table = self.sparse_table(tmp_path)
        cleaned = clean(table, CleaningPolicy(calendar_rule="union"))
        assert (cleaned.low <= np.minimum(cleaned.open, cleaned.close)).all()
        assert (cleaned.high >= np.maximum(cleaned.open, cleaned.close)).all()

    def test_needs_two_timestamps(self):
        table = make_table(np.array([[100.0]]))
        with pytest.raises(DataError, match="two timestamps"):
            clean(table, CleaningPolicy())


class TestMerge:
    def test_disjoint_tickers(self):
        a = make_table(np.full((3, 1), 10.0), tickers=("A",))
        b = make_table(np.full((3, 1), 20.0), tickers=("B",))
        merged = merge([a, b])
        assert merged.tickers == ("A", "B")
        assert merged.n_steps == 3

    def test_same_ticker_disjoint_ranges(self):
        a = make_table(np.full((2, 1), 10.0), tickers=("A",))
        b = make_table(np.full((2, 1), 11.0), tickers=("A",),
                       start=np.datetime64("2022-02-01T00:00:00", "s"))
        merged = merge([a, b])
        assert merged.n_steps == 4
        assert merged.dense

    def test_conflicting_cell_is_error(self):
        a = make_table(np.full((2, 1), 10.0), tickers=("A",))
        b = make_table(np.full((2, 1), 10.5), tickers=("A",))
        with pytest.raises(MergeConflictError, match=r"\(A, 2022-01-03"):
            merge([a, b])

    def test_identical_duplicate_cells_are_fine(self):
        a = make_table(np.full((2, 1), 10.0), tickers=("A",))
        merged = merge([a, a])
        assert tables_equal(merged, a)

    def test_frequency_mismatch(self):
        a = make_table(np.full((2, 1), 10.0), frequency="1day")
        b = make_table(np.full((2, 1), 10.0), frequency="1min")
        with pytest.raises(DataError, match="frequency mismatch"):
            merge([a, b])


class TestSplit:
    def ten_day_table(self):
        return make_table(np.arange(100.0, 110.0)[:, None])

    def spec(self, a, b, c, d):
        ts = lambda i: np.datetime64("2022-01-03T00:00:00", "s") + i * np.timedelta64(86400, "s")
        return SplitSpec((ts(a), ts(b)), (ts(b), ts(c)), (ts(c), ts(d)))

    def test_segment_lengths(self):
        train, test, trade = split(self.ten_day_table(), self.spec(0, 5, 7, 8))
        assert (train.n_steps, test.n_steps, trade.n_steps) == (5, 2, 1)

    def test_partition_preserves_order(self):
        table = self.ten_day_table()
        train, test, trade = split(table, self.spec(0, 5, 7, 10))
        joined = np.concatenate([train.calendar, test.calendar, trade.calendar])
        assert np.array_equal(joined, table.calendar)

    def test_out_of_calendar_trade_range(self):
        with pytest.raises(SplitError, match="trade range"):
            split(self.ten_day_table(), self.spec(0, 5, 10, 12))

    def test_empty_test_segment(self):
        with pytest.raises(SplitError):
            split(self.ten_day_table(), self.spec(0, 5, 5, 10))

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(SplitError, match="disjoint"):
            SplitSpec(("2022-01-03T00:00:00+00:00", "2022-01-08T00:00:00+00:00"),
                      ("2022-01-07T00:00:00+00:00", "2022-01-09T00:00:00+00:00"),
                      ("2022-01-09T00:00:00+00:00", "2022-01-10T00:00:00+00:00"),
                      ).normalized()


class TestBarTable:
    def test_calendar_must_increase(self):
        cal = np.array(["2022-01-03T00:00:00", "2022-01-03T00:00:00"],
                       dtype="datetime64[s]")
        ones = np.ones((2, 1))
        with pytest.raises(DataError, match="strictly increasing"):
            BarTable("1day", ("A",), cal, ones, ones, ones, ones, ones,
                     ones.astype(bool), np.zeros((2, 1), bool))

    def test_immutable_arrays(self):
        table = make_table(np.full((2, 1), 10.0))
        with pytest.raises(ValueError):
            table.close[0, 0] = 1.0


class TestToDatetime64:
    def test_offset_text_out_of_range_in_utc_raises(self):
        # one hour before year 1 in UTC: an error, not numpy's reading of
        # the text with the offset dropped
        with pytest.raises(ValueError, match="out of range in UTC"):
            to_datetime64("0001-01-01T00:00:00+01:00")

    def test_text_without_offset_falls_back_to_numpy(self):
        assert to_datetime64("0001-01-01T00:00:00") == np.datetime64(
            "0001-01-01T00:00:00", "s")
        assert to_datetime64("2022-01-03") == np.datetime64(
            "2022-01-03T00:00:00", "s")
        assert to_datetime64("2022-01-03T05:00:00+02:00") == np.datetime64(
            "2022-01-03T03:00:00", "s")
