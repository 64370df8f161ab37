"""Synthetic generators: determinism, invariants, calibration, planted signal."""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest

from opentrend.ohlc import serialize_csv, volatility
from opentrend.synth import (
    GENERATOR_KINDS,
    GenSpec,
    generate,
    generate_with_directions,
    trading_dates,
)


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            GenSpec(kind="brownian", days=10)

    def test_bad_days(self):
        with pytest.raises(ValueError, match="days must be"):
            GenSpec(kind="grw", days=0)

    def test_unknown_param_names_rejected_per_kind(self):
        with pytest.raises(ValueError, match="unknown parameters for grw"):
            GenSpec(kind="grw", days=10, params={"level": 5.0})

    def test_defaults_are_overridable(self):
        spec = GenSpec(kind="grw", days=10, params={"volatility": 0.05})
        resolved = spec.resolved_params()
        assert resolved["volatility"] == 0.05
        assert resolved["start"] == 100.0


class TestDates:
    def test_weekdays_only(self):
        dates = trading_dates(50)
        assert all(d.weekday() < 5 for d in dates)

    def test_starts_on_a_monday_and_skips_weekends(self):
        dates = trading_dates(7)
        assert dates[0] == dt.date(2019, 4, 1)
        assert dates[0].weekday() == 0
        assert dates[4] == dt.date(2019, 4, 5)  # Friday
        assert dates[5] == dt.date(2019, 4, 8)  # the next Monday

    def test_strictly_increasing(self):
        dates = trading_dates(200)
        assert all(a < b for a, b in zip(dates, dates[1:]))


class TestDeterminismAndInvariants:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_same_spec_same_series(self, kind):
        a = generate(GenSpec(kind=kind, days=60, seed=77))
        b = generate(GenSpec(kind=kind, days=60, seed=77))
        assert serialize_csv(a) == serialize_csv(b)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_different_seed_different_series(self, kind):
        a = generate(GenSpec(kind=kind, days=60, seed=1))
        b = generate(GenSpec(kind=kind, days=60, seed=2))
        if kind == "constant":
            assert serialize_csv(a) == serialize_csv(b)  # no randomness to vary
        else:
            assert serialize_csv(a) != serialize_csv(b)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_bars_satisfy_ohlc_invariants(self, kind):
        # OhlcSeries construction enforces the bracket; this re-checks explicitly
        series = generate(GenSpec(kind=kind, days=120, seed=5))
        assert len(series) == 120
        o, h, l, c = (series.prices(name) for name in ("open", "high", "low", "close"))
        assert np.all(l <= np.minimum(o, c)) and np.all(np.maximum(o, c) <= h)
        assert np.all(l > 0)


class TestConstant:
    def test_flat_at_level(self):
        series = generate(GenSpec(kind="constant", days=30, seed=0, params={"level": 42.0}))
        for name in ("open", "high", "low", "close"):
            assert np.all(series.prices(name) == 42.0)

    def test_zero_volatility(self):
        series = generate(GenSpec(kind="constant", days=30, seed=0))
        stats = volatility(series)
        assert stats.daily_volatility == 0.0
        assert stats.periodized_volatility == 0.0


class TestGrw:
    def test_volatility_calibrates(self):
        """Sample close-to-close volatility should approach the parameter."""
        target = 0.02
        series = generate(GenSpec(kind="grw", days=2500, seed=3, params={"volatility": target}))
        stats = volatility(series)
        assert stats.daily_volatility == pytest.approx(target, rel=0.10)

    def test_drift_shows_in_mean_return(self):
        drift = 0.002
        series = generate(
            GenSpec(kind="grw", days=4000, seed=9, params={"drift": drift, "volatility": 0.01})
        )
        stats = volatility(series)
        assert stats.mean_return == pytest.approx(drift, abs=3 * 0.01 / math.sqrt(3999))

    def test_close_log_returns_are_the_seeded_normal_draws(self):
        spec = GenSpec(kind="grw", days=100, seed=21, params={"drift": 0.0, "volatility": 0.015})
        series = generate(spec)
        closes = series.prices("close")
        got = np.diff(np.log(closes))
        expected = np.random.default_rng(21).normal(0.0, 0.015, size=99)
        np.testing.assert_allclose(got, expected, rtol=1e-9)


class TestTrend:
    def test_monotone_when_noise_is_tiny(self):
        series = generate(
            GenSpec(kind="trend", days=100, seed=2, params={"slope": 0.01, "noise": 1e-6})
        )
        closes = series.prices("close")
        assert np.all(np.diff(closes) > 0)

    def test_slope_recovered(self):
        series = generate(
            GenSpec(kind="trend", days=2000, seed=4, params={"slope": 0.003, "noise": 0.004})
        )
        closes = np.log(series.prices("close"))
        slope = np.polyfit(np.arange(len(closes)), closes, 1)[0]
        assert slope == pytest.approx(0.003, rel=0.05)


def close_signs(series):
    """+1 where a bar closes above its open (r_cl > 0), -1 otherwise, for all but the last bar."""
    return np.where(series.prices("close")[:-1] > series.prices("open")[:-1], 1, -1)


class TestSeparable:
    def test_full_strength_labels_equal_close_sign(self):
        series, planted = generate_with_directions(
            GenSpec(kind="separable", days=400, seed=6, params={"signal_strength": 1.0})
        )
        opens = series.prices("open")
        actual = np.where(opens[1:] > opens[:-1], 1, -1)
        np.testing.assert_array_equal(actual, planted)
        r_cl_sign = close_signs(series)
        np.testing.assert_array_equal(planted, r_cl_sign)

    def test_partial_strength_follows_at_that_rate(self):
        s = 0.75
        series, planted = generate_with_directions(
            GenSpec(kind="separable", days=4000, seed=8, params={"signal_strength": s})
        )
        r_cl_sign = close_signs(series)
        agree = (planted == r_cl_sign).mean()
        # follow with prob s, coin-flip otherwise: expected agreement s + (1-s)/2
        assert agree == pytest.approx(s + (1 - s) / 2, abs=0.03)

    def test_zero_strength_has_no_signal(self):
        series, planted = generate_with_directions(
            GenSpec(kind="separable", days=4000, seed=10, params={"signal_strength": 0.0})
        )
        r_cl_sign = close_signs(series)
        agree = (planted == r_cl_sign).mean()
        assert agree == pytest.approx(0.5, abs=0.03)

    def test_wick_sizes_carry_no_label_information(self):
        """r_hi (and |r_lo|) must be distributed identically on up and down
        days — the planted signal lives in r_cl's sign alone."""
        series, _ = generate_with_directions(
            GenSpec(kind="separable", days=6000, seed=12, params={"signal_strength": 1.0})
        )
        opens = series.prices("open")
        up = series.prices("close") > opens
        r_hi = np.log(series.prices("high") / opens)
        r_lo = -np.log(series.prices("low") / opens)
        for values in (r_hi, r_lo):
            mean_up, mean_down = values[up].mean(), values[~up].mean()
            pooled_se = values.std() * math.sqrt(1 / up.sum() + 1 / (~up).sum())
            assert abs(mean_up - mean_down) < 4 * pooled_se

    def test_strength_out_of_range(self):
        with pytest.raises(ValueError, match="signal_strength"):
            generate(GenSpec(kind="separable", days=10, seed=0, params={"signal_strength": 1.5}))

    def test_directions_reported_for_every_gap(self):
        series, planted = generate_with_directions(GenSpec(kind="separable", days=25, seed=1))
        assert planted.shape == (24,)
        assert set(np.unique(planted)) <= {-1, 1}
