"""Event-to-calendar alignment: sentiment bins and lagged fundamentals."""
import logging

import numpy as np
import pytest

from quantgym.errors import FeatureError
from quantgym.features import (
    EventSeries,
    align_events,
    fundamental_effective_from,
)

from conftest import make_table


def daily_table(n_steps, start="2022-07-01T00:00:00"):
    close = np.full((n_steps, 1), 100.0)
    return make_table(close, tickers=("AAPL",),
                      start=np.datetime64(start, "s"))


def ts(text):
    return np.datetime64(text, "s")


class TestSentimentAlignment:
    def test_no_events_all_zero(self):
        table = daily_table(5)
        col = align_events(table, EventSeries((), "sentiment"))
        assert col.shape == (5, 1)
        assert (col == 0).all()

    def test_mean_within_one_bar(self):
        # 10-minute bars; two events inside one interval average to 0.6
        close = np.full((4, 1), 10.0)
        table = make_table(close, tickers=("AAPL",), frequency="5min",
                           start=ts("2022-07-01T10:00:00"),
                           )
        events = EventSeries((
            (ts("2022-07-01T10:02:00"), "AAPL", 0.4),
            (ts("2022-07-01T10:04:00"), "AAPL", 0.8),
        ), "sentiment")
        col = align_events(table, events)
        assert col[1, 0] == pytest.approx(0.6)
        assert col[0, 0] == 0.0
        assert col[2, 0] == 0.0

    def test_interval_is_half_open(self):
        table = daily_table(3)
        events = EventSeries((
            (table.calendar[1], "AAPL", 0.5),  # exactly at bar 1: in (t0, t1]
        ), "sentiment")
        col = align_events(table, events)
        assert col[1, 0] == 0.5
        assert col[0, 0] == 0.0

    def test_first_bar_uses_one_frequency_lookback(self):
        table = daily_table(3)
        events = EventSeries((
            (table.calendar[0] - np.timedelta64(3600, "s"), "AAPL", 0.9),
        ), "sentiment")
        col = align_events(table, events)
        assert col[0, 0] == 0.9

    def test_unknown_ticker_warns_and_skips(self, caplog):
        table = daily_table(3)
        events = EventSeries(((table.calendar[1], "ZZZ", 1.0),), "sentiment")
        with caplog.at_level(logging.WARNING):
            col = align_events(table, events)
        assert (col == 0).all()
        assert "ZZZ" in caplog.text


class TestFundamentalAlignment:
    def test_quarter_end_effective_september_first(self):
        assert fundamental_effective_from(ts("2022-06-30T00:00:00")) == \
            ts("2022-09-01T00:00:00")

    def test_other_quarters(self):
        assert fundamental_effective_from(ts("2022-03-31T00:00:00")) == \
            ts("2022-06-01T00:00:00")
        assert fundamental_effective_from(ts("2022-12-31T00:00:00")) == \
            ts("2023-03-01T00:00:00")

    def test_first_effective_trade_step(self):
        # daily calendar spanning July 1 .. October 28
        table = daily_table(120, start="2022-07-01T00:00:00")
        events = EventSeries(((ts("2022-06-30T00:00:00"), "AAPL", 2.5),),
                             "fundamental")
        col = align_events(table, events)
        first = int(np.argmax(col[:, 0] != 0))
        assert table.calendar[first] == ts("2022-09-01T00:00:00")
        assert (col[first:, 0] == 2.5).all()
        assert (col[:first, 0] == 0).all()

    def test_latest_effective_event_wins(self):
        table = daily_table(200, start="2022-07-01T00:00:00")
        events = EventSeries((
            (ts("2022-06-30T00:00:00"), "AAPL", 1.0),
            (ts("2022-09-30T00:00:00"), "AAPL", 2.0),
        ), "fundamental")
        col = align_events(table, events)
        dec1 = int(np.argmax(table.calendar == ts("2022-12-01T00:00:00")))
        assert col[dec1 - 1, 0] == 1.0
        assert col[dec1, 0] == 2.0

    def test_strictly_causal(self):
        table = daily_table(40, start="2022-07-01T00:00:00")
        events = EventSeries(((ts("2022-07-15T00:00:00"), "AAPL", 9.9),),
                             "fundamental")
        col = align_events(table, events)
        assert (col[:, 0] == 0).all()  # effective only from Sep 16


def test_effective_date_past_year_9999_is_a_feature_error():
    table = daily_table(5)
    events = EventSeries(((ts("9999-12-31T23:59:59"), "AAPL", 1.0),),
                         "fundamental")
    with pytest.raises(FeatureError) as err:
        align_events(table, events)
    assert str(err.value) == ("fundamental event at 9999-12-31T23:59:59 "
                              "takes effect outside years 1-9999")


def test_event_series_validates_kind():
    with pytest.raises(Exception, match="unknown event kind"):
        EventSeries((), "news")
