"""OHLC parsing, validation, serialization, and volatility."""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest

from conftest import series_from_rows
from opentrend.ohlc import (
    CSV_HEADER,
    PRICE_FIELDS,
    OhlcError,
    OhlcSeries,
    parse_csv,
    serialize_csv,
    volatility,
)
from opentrend.synth import GenSpec, generate


def bar(day: str, o, h, l, c) -> OhlcSeries:
    """A one-day series."""
    return OhlcSeries("m", (dt.date.fromisoformat(day),), [o], [h], [l], [c])


def flat_series(closes, market="flat") -> OhlcSeries:
    """One bar per close with open = high = low = close."""
    return series_from_rows(((c, c, c, c) for c in closes), market=market)


def scaled(series: OhlcSeries, scale: float) -> OhlcSeries:
    return OhlcSeries("s", series.dates, *(series.prices(name) * scale for name in PRICE_FIELDS))


class TestBarInvariants:
    def test_valid_bar(self):
        b = bar("2019-04-01", 100.0, 110.0, 95.0, 105.0)
        assert b.prices("high")[0] == 110.0

    def test_high_below_low_rejected(self):
        with pytest.raises(OhlcError, match="bar invariant violated at 2019-04-01"):
            bar("2019-04-01", 100.0, 95.0, 99.0, 97.0)

    def test_open_above_high_rejected(self):
        with pytest.raises(OhlcError, match="bar invariant violated"):
            bar("2019-04-01", 111.0, 110.0, 95.0, 105.0)

    def test_close_below_low_rejected(self):
        with pytest.raises(OhlcError, match="bar invariant violated"):
            bar("2019-04-01", 100.0, 110.0, 95.0, 94.0)

    @pytest.mark.parametrize("price", [0.0, -5.0, float("nan"), float("inf")])
    def test_nonpositive_or_nonfinite_rejected(self, price):
        with pytest.raises(OhlcError):
            bar("2019-04-01", price, 110.0, 95.0, 105.0)

    def test_unknown_price_field(self):
        with pytest.raises(OhlcError, match="unknown price field"):
            bar("2019-04-01", 100.0, 110.0, 95.0, 105.0).prices("volume")

    @pytest.mark.parametrize("value", [True, None, "100.0"])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(OhlcError, match="open must be a number at 2019-04-01"):
            bar("2019-04-01", value, 110.0, 95.0, 105.0)


class TestSeriesInvariants:
    def test_duplicate_dates_rejected(self):
        day = dt.date(2019, 4, 1)
        with pytest.raises(OhlcError, match="non-increasing dates"):
            OhlcSeries("x", (day, day), [100.0] * 2, [110.0] * 2, [95.0] * 2, [105.0] * 2)

    def test_out_of_order_dates_rejected(self):
        dates = (dt.date(2019, 4, 2), dt.date(2019, 4, 1))
        with pytest.raises(OhlcError, match="non-increasing dates"):
            OhlcSeries("x", dates, [100.0] * 2, [110.0] * 2, [95.0] * 2, [105.0] * 2)

    @pytest.mark.parametrize(
        "entry",
        [1, "2019-04-02", dt.datetime(2019, 4, 2), dt.datetime(2019, 4, 2, 9, 30)],
        ids=["int", "str", "datetime-midnight", "datetime"],
    )
    def test_non_date_entries_rejected(self, entry):
        """The first entry that is not a ``datetime.date`` is named, ahead of any price or order check."""
        dates = (dt.date(2019, 4, 1), entry, dt.date(2019, 4, 3), 4)
        with pytest.raises(OhlcError) as caught:
            OhlcSeries("x", dates, [100.0] * 4, [110.0] * 4, [95.0] * 4, [-1.0] * 4)
        assert str(caught.value) == f"dates must be datetime.date values, got {entry!r} at position 1"

    def test_prices_array(self, grw_series):
        closes = grw_series.prices("close")
        assert closes.shape == (len(grw_series),)
        assert np.all(closes > 0)

    def test_columns_are_contiguous_read_only_float64(self):
        series = series_from_rows([(1, 2, 1, 2), (2, 3, 1, 1)])
        for name in PRICE_FIELDS:
            column = series.prices(name)
            assert column is getattr(series, name) is series.prices(name)
            assert column.dtype == np.float64
            assert column.flags.c_contiguous and not column.flags.writeable

    def test_writing_into_prices_raises_and_leaves_series_unchanged(self, grw_series):
        before = serialize_csv(grw_series)
        closes = grw_series.prices("close")
        with pytest.raises(ValueError, match="read-only"):
            closes[3] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            closes *= 2.0
        assert serialize_csv(grw_series) == before

    def test_series_owns_its_columns(self):
        opens = np.array([100.0, 101.0])
        series = OhlcSeries("x", (dt.date(2019, 4, 1), dt.date(2019, 4, 2)), opens, [110.0] * 2, [95.0] * 2, [105.0] * 2)
        opens[0] = 500.0
        assert series.prices("open")[0] == 100.0

    def test_column_length_must_match_dates(self):
        with pytest.raises(OhlcError, match="one value per date"):
            OhlcSeries("x", (dt.date(2019, 4, 1),), [100.0, 100.0], [110.0], [95.0], [105.0])


VALID_ROW = (100.0, 110.0, 95.0, 105.0)


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ((100.0, 110.0, 95.0, -1.0), "close must be a positive finite price at {day}, got -1.0"),
        ((100.0, float("inf"), 95.0, 105.0), "high must be a positive finite price at {day}, got inf"),
        ((100.0, float("nan"), 95.0, 105.0), "high must be a positive finite price at {day}, got nan"),
        ((100.0, 104.0, 95.0, 105.0), "bar invariant violated at {day}: open=100.0 high=104.0 low=95.0 close=105.0"),
        ((100.0, 110.0, 101.0, 105.0), "bar invariant violated at {day}"),
        ((100.0, 110.0, True, 105.0), "low must be a number at {day}, got True"),
        ((100.0, 110.0, 95.0, None), "close must be a number at {day}, got None"),
    ],
)
@pytest.mark.parametrize("k", [0, 3, 5])
def test_violation_on_row_k_names_row_k(bad_row, message, k):
    """Rows are valid except row k and the last row: the error names row k, the first offender."""
    rows = [VALID_ROW] * 6
    rows[k] = rows[-1] = bad_row
    day = dt.date(2019, 4, 1) + dt.timedelta(days=k)
    with pytest.raises(OhlcError) as caught:
        series_from_rows(rows)
    assert str(caught.value).startswith(message.format(day=day.isoformat()))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_non_increasing_date_on_row_k_names_row_k(k):
    dates = [dt.date(2019, 4, 1) + dt.timedelta(days=i) for i in range(6)]
    dates[k] = dates[k - 1]
    with pytest.raises(OhlcError) as caught:
        OhlcSeries("x", tuple(dates), *zip(*[VALID_ROW] * 6))
    assert str(caught.value) == f"non-increasing dates: {dates[k].isoformat()} follows {dates[k - 1].isoformat()}"


class TestParseCsv:
    def test_round_trip(self, grw_series):
        text = serialize_csv(grw_series)
        again = parse_csv(text, market=grw_series.market)
        assert again.dates == grw_series.dates
        for name in PRICE_FIELDS:
            np.testing.assert_array_equal(again.prices(name), grw_series.prices(name))
        assert serialize_csv(again) == text

    def test_round_trip_bytes_on_paper_scale_market(self):
        """Text -> series -> text is byte-identical on the 1256-day separable benchmark market."""
        market = generate(GenSpec(kind="separable", days=1256, seed=0, params={"signal_strength": 0.6}))
        text = serialize_csv(market)
        assert "np.float64" not in text
        assert serialize_csv(parse_csv(text)) == text

    def test_crlf_and_bom_tolerated(self):
        text = "﻿" + CSV_HEADER + "\r\n2019-04-01,1.0,2.0,0.5,1.5\r\n"
        series = parse_csv(text)
        assert len(series) == 1
        assert series.prices("close")[0] == 1.5

    def test_header_required(self):
        with pytest.raises(OhlcError, match="bad header"):
            parse_csv("date,open,high,low,closing\n2019-04-01,1,2,0.5,1\n")

    def test_empty_file(self):
        with pytest.raises(OhlcError, match="empty file"):
            parse_csv("")

    def test_header_only_file(self):
        for text in (CSV_HEADER, CSV_HEADER + "\n", CSV_HEADER + "\r\n\n\n"):
            with pytest.raises(OhlcError, match="no data rows after the header"):
                parse_csv(text)

    def test_duplicate_date_rows(self):
        text = f"{CSV_HEADER}\n2019-04-01,1,2,0.5,1\n2019-04-01,1,2,0.5,1\n"
        with pytest.raises(OhlcError, match="non-increasing dates"):
            parse_csv(text)

    def test_out_of_order_rows(self):
        text = f"{CSV_HEADER}\n2019-04-02,1,2,0.5,1\n2019-04-01,1,2,0.5,1\n"
        with pytest.raises(OhlcError, match="non-increasing dates"):
            parse_csv(text)

    def test_wrong_field_count(self):
        with pytest.raises(OhlcError, match="malformed row at line 2"):
            parse_csv(f"{CSV_HEADER}\n2019-04-01,1,2,0.5\n")

    def test_bad_number(self):
        with pytest.raises(OhlcError, match="malformed row at line 2"):
            parse_csv(f"{CSV_HEADER}\n2019-04-01,1,2,0.5,abc\n")

    def test_bad_date(self):
        with pytest.raises(OhlcError, match="malformed row at line 2"):
            parse_csv(f"{CSV_HEADER}\n04/01/2019,1,2,0.5,1\n")

    def test_interior_blank_row(self):
        with pytest.raises(OhlcError, match="blank row"):
            parse_csv(f"{CSV_HEADER}\n2019-04-01,1,2,0.5,1\n\n2019-04-02,1,2,0.5,1\n")

    def test_bar_invariant_surfaced_with_date(self):
        with pytest.raises(OhlcError, match="bar invariant violated at 2019-04-01"):
            parse_csv(f"{CSV_HEADER}\n2019-04-01,3,2,0.5,1\n")


class TestVolatility:
    def test_known_returns(self):
        # closes 100, 100e, 100 -> log returns +1, -1 -> mean 0, unbiased var 2
        series = flat_series([100.0, 100.0 * math.e, 100.0])
        stats = volatility(series, period_days=252)
        assert stats.n_returns == 2
        assert stats.mean_return == pytest.approx(0.0, abs=1e-15)
        assert stats.variance == pytest.approx(2.0, rel=1e-12)
        assert stats.daily_volatility == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert stats.periodized_volatility == pytest.approx(math.sqrt(2.0 * 252), rel=1e-12)

    def test_constant_series_zero_volatility(self):
        stats = volatility(flat_series([42.0] * 10))
        assert stats.variance == 0.0
        assert stats.daily_volatility == 0.0
        assert stats.periodized_volatility == 0.0

    def test_geometric_growth_zero_variance(self):
        closes = [100.0 * 1.01**t for t in range(30)]
        stats = volatility(flat_series(closes))
        assert stats.variance == pytest.approx(0.0, abs=1e-25)
        assert stats.mean_return == pytest.approx(math.log(1.01), rel=1e-12)

    @pytest.mark.parametrize("scale", [0.001, 3.0, 1e4])
    def test_scale_invariance(self, grw_series, scale):
        base = volatility(grw_series)
        big = volatility(scaled(grw_series, scale))
        assert big.daily_volatility == pytest.approx(base.daily_volatility, rel=1e-9)
        assert big.mean_return == pytest.approx(base.mean_return, rel=1e-9, abs=1e-12)

    def test_brute_force_oracle(self, grw_series):
        closes = grw_series.prices("close")
        returns = [math.log(closes[t] / closes[t - 1]) for t in range(1, len(closes))]
        mean = sum(returns) / len(returns)
        var = sum((r - mean) ** 2 for r in returns) / (len(returns) - 1)
        stats = volatility(grw_series)
        assert stats.variance == pytest.approx(var, rel=1e-12)
        assert stats.daily_volatility == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_price_field_selection(self, grw_series):
        assert volatility(grw_series, "open").daily_volatility != volatility(
            grw_series, "close"
        ).daily_volatility

    def test_too_short(self):
        with pytest.raises(OhlcError, match="at least 3 bars"):
            volatility(flat_series([1.0, 2.0]))

    def test_bad_period(self, grw_series):
        with pytest.raises(OhlcError, match="period_days"):
            volatility(grw_series, period_days=0)
        with pytest.raises(OhlcError, match="period_days must be a positive integer, got True"):
            volatility(grw_series, period_days=True)

    def test_bad_field(self, grw_series):
        with pytest.raises(OhlcError, match="unknown price field"):
            volatility(grw_series, price_field="volume")
