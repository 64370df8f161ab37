"""Band indicators against brute-force per-index oracles and hand values."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from opentrend.indicators import (
    BOLLINGER,
    CHANNEL_COLUMNS,
    DONCHIAN,
    KELTNER,
    IndicatorParams,
    atr,
    channel_arrays,
    ema,
    sma,
    true_range,
)
from conftest import series_from_rows
from opentrend.ohlc import PRICE_FIELDS, OhlcSeries
from opentrend.synth import GenSpec, generate

# ---------------------------------------------------------------------------
# brute-force oracles (independent per-index recomputation)
# ---------------------------------------------------------------------------


def oracle_donchian(series, n, t):
    highs = list(series.prices("high")[t - n + 1 : t + 1])
    lows = list(series.prices("low")[t - n + 1 : t + 1])
    upper, lower = max(highs), min(lows)
    return upper, lower, (upper + lower) / 2.0


def oracle_bollinger(series, n, k, t):
    window = list(series.prices("close")[t - n + 1 : t + 1])
    middle = sum(window) / n
    sigma = math.sqrt(sum((c - middle) ** 2 for c in window) / n)
    return middle + k * sigma, middle - k * sigma, middle


def oracle_ema(closes, n, t):
    """Closed-form EMA: geometric sum over values after the SMA seed."""
    alpha = 2.0 / (n + 1)
    seed = sum(closes[:n]) / n
    if t == n - 1:
        return seed
    total = seed * (1.0 - alpha) ** (t - n + 1)
    for i in range(n, t + 1):
        total += alpha * (1.0 - alpha) ** (t - i) * closes[i]
    return total


def oracle_true_range(series, t):
    high, low = series.prices("high")[t], series.prices("low")[t]
    if t == 0:
        return high - low
    prev = series.prices("close")[t - 1]
    return max(high - low, abs(high - prev), abs(low - prev))


def oracle_keltner(series, n, k, t):
    closes = list(series.prices("close"))
    middle = oracle_ema(closes, n, t)
    avg_tr = sum(oracle_true_range(series, i) for i in range(t - n + 1, t + 1)) / n
    return middle + k * avg_tr, middle - k * avg_tr, middle


def bands(series, kind, params=None):
    """(upper, lower, middle) arrays of one channel."""
    arrays = channel_arrays(series, params or IndicatorParams())
    return tuple(arrays[column] for column in CHANNEL_COLUMNS[kind])


def flat_series(closes):
    return series_from_rows(((c, c, c, c) for c in closes), market="flat")


# ---------------------------------------------------------------------------
# scalar indicators
# ---------------------------------------------------------------------------


class TestSma:
    def test_hand_values(self):
        out = sma([1.0, 2.0, 3.0, 4.0], 2)
        assert np.isnan(out[0])
        np.testing.assert_allclose(out[1:], [1.5, 2.5, 3.5])

    def test_warmup_is_nan_not_zero(self):
        out = sma(np.arange(1.0, 31.0), 20)
        assert np.all(np.isnan(out[:19]))
        assert not np.any(out[:19] == 0.0)

    def test_window_equals_length(self):
        out = sma([2.0, 4.0, 6.0], 3)
        assert np.isnan(out[0]) and np.isnan(out[1])
        assert out[2] == pytest.approx(4.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="series too short"):
            sma([1.0], 2)


class TestEma:
    def test_hand_values(self):
        # n=2, alpha=2/3: seed 1.5 at index 1, then (2/3)*3 + (1/3)*1.5 = 2.5,
        # then (2/3)*4 + (1/3)*2.5 = 3.5
        out = ema([1.0, 2.0, 3.0, 4.0], 2)
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(1.5)
        assert out[2] == pytest.approx(2.5)
        assert out[3] == pytest.approx(3.5)

    def test_recursion_identity(self, grw_series):
        closes = grw_series.prices("close")
        n = 20
        out = ema(closes, n)
        alpha = 2.0 / (n + 1)
        for t in range(n, len(closes)):
            assert out[t] == pytest.approx(alpha * closes[t] + (1 - alpha) * out[t - 1], rel=1e-12)

    def test_closed_form_oracle(self, grw_series):
        closes = list(grw_series.prices("close"))
        out = ema(closes, 20)
        for t in (19, 20, 47, 150, len(closes) - 1):
            assert out[t] == pytest.approx(oracle_ema(closes, 20, t), rel=1e-9)

    def test_constant_input_is_fixed_point(self):
        out = ema([7.0] * 40, 20)
        np.testing.assert_allclose(out[19:], 7.0)


class TestTrueRange:
    def test_first_day_is_high_minus_low(self):
        series = flat_series([100.0, 100.0])
        assert true_range(series)[0] == 0.0

    def test_gap_cases(self):
        rows = (
            (100.0, 105.0, 98.0, 104.0),
            # gap up: high-prev_close dominates
            (110.0, 112.0, 109.0, 111.0),
            # gap down: prev_close - low dominates
            (100.0, 101.0, 99.0, 100.0),
        )
        series = series_from_rows(rows, market="g")
        tr = true_range(series)
        assert tr[0] == pytest.approx(7.0)
        assert tr[1] == pytest.approx(112.0 - 104.0)
        assert tr[2] == pytest.approx(111.0 - 99.0)

    def test_oracle(self, grw_series):
        tr = true_range(grw_series)
        for t in range(len(grw_series)):
            assert tr[t] == pytest.approx(oracle_true_range(grw_series, t), rel=1e-12)
        assert np.all(tr >= 0)

    def test_atr_is_the_sma_of_the_true_range(self, grw_series):
        """Bit for bit the rolling window mean of the true range."""
        n = 20
        tr = true_range(grw_series)
        want = np.concatenate((np.full(n - 1, np.nan), np.lib.stride_tricks.sliding_window_view(tr, n).mean(axis=1)))
        assert atr(grw_series, n).tobytes() == want.tobytes()

    def test_atr_is_window_mean(self, grw_series):
        n = 20
        out = atr(grw_series, n)
        tr = true_range(grw_series)
        assert np.all(np.isnan(out[: n - 1]))
        for t in (n - 1, 50, len(grw_series) - 1):
            assert out[t] == pytest.approx(tr[t - n + 1 : t + 1].mean(), rel=1e-12)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


class TestChannels:
    N = 20

    def test_warmup_undefined(self, grw_series):
        for kind in (DONCHIAN, BOLLINGER, KELTNER):
            for values in bands(grw_series, kind):
                assert np.all(np.isnan(values[: self.N - 1]))
                assert np.all(np.isfinite(values[self.N - 1 :]))

    def test_donchian_oracle(self, grw_series):
        upper, lower, middle = bands(grw_series, DONCHIAN, IndicatorParams(window_n=self.N))
        for t in range(self.N - 1, len(grw_series)):
            want_upper, want_lower, want_middle = oracle_donchian(grw_series, self.N, t)
            assert upper[t] == pytest.approx(want_upper, rel=1e-12)
            assert lower[t] == pytest.approx(want_lower, rel=1e-12)
            assert middle[t] == pytest.approx(want_middle, rel=1e-12)

    def test_bollinger_oracle(self, grw_series):
        params = IndicatorParams(window_n=self.N, bollinger_k=2.0)
        upper, lower, middle = bands(grw_series, BOLLINGER, params)
        for t in range(self.N - 1, len(grw_series)):
            want_upper, want_lower, want_middle = oracle_bollinger(grw_series, self.N, 2.0, t)
            assert upper[t] == pytest.approx(want_upper, rel=1e-9)
            assert lower[t] == pytest.approx(want_lower, rel=1e-9)
            assert middle[t] == pytest.approx(want_middle, rel=1e-9)

    def test_keltner_oracle(self, grw_series):
        params = IndicatorParams(window_n=self.N, keltner_k=2.0)
        upper, lower, middle = bands(grw_series, KELTNER, params)
        for t in range(self.N - 1, len(grw_series)):
            want_upper, want_lower, want_middle = oracle_keltner(grw_series, self.N, 2.0, t)
            assert upper[t] == pytest.approx(want_upper, rel=1e-9)
            assert lower[t] == pytest.approx(want_lower, rel=1e-9)
            assert middle[t] == pytest.approx(want_middle, rel=1e-9)

    def test_bollinger_hand_example(self):
        # window [1, 3]: mean 2, population sigma 1, k=2 -> bands (4, 2, 0)
        series = flat_series([1.0, 3.0])
        upper, lower, middle = bands(series, BOLLINGER, IndicatorParams(window_n=2, bollinger_k=2.0))
        assert np.isnan(upper[0]) and np.isnan(lower[0]) and np.isnan(middle[0])
        assert upper[1] == pytest.approx(4.0)
        assert middle[1] == pytest.approx(2.0)
        assert lower[1] == pytest.approx(0.0)

    def test_constant_series_collapses_all_channels(self):
        series = flat_series([50.0] * 30)
        for kind in (DONCHIAN, BOLLINGER, KELTNER):
            for values in bands(series, kind, IndicatorParams(window_n=self.N)):
                np.testing.assert_allclose(values[self.N - 1 :], 50.0, rtol=1e-6)

    def test_band_ordering_everywhere(self, grw_series):
        arrays = channel_arrays(grw_series, IndicatorParams())
        for prefix in ("dc", "bb", "kc"):
            u, l, m = arrays[f"{prefix}_u"], arrays[f"{prefix}_l"], arrays[f"{prefix}_m"]
            defined = ~np.isnan(u)
            assert np.all(l[defined] <= m[defined])
            assert np.all(m[defined] <= u[defined])

    def test_scale_equivariance(self, grw_series):
        scale = 7.5
        scaled = OhlcSeries("s", grw_series.dates, *(grw_series.prices(f) * scale for f in PRICE_FIELDS))
        base = channel_arrays(grw_series, IndicatorParams())
        big = channel_arrays(scaled, IndicatorParams())
        for key in base:
            np.testing.assert_allclose(big[key][19:], base[key][19:] * scale, rtol=1e-9)

    def test_keltner_k_zero_collapses_to_ema(self, grw_series):
        params = IndicatorParams(window_n=self.N, keltner_k=0.0)
        upper, lower, _ = bands(grw_series, KELTNER, params)
        reference = ema(grw_series.prices("close"), self.N)
        for t in range(self.N - 1, len(grw_series)):
            assert upper[t] == pytest.approx(reference[t], rel=1e-12)
            assert lower[t] == pytest.approx(reference[t], rel=1e-12)

    def test_paper_literal_bollinger_needs_longer_warmup(self, grw_series):
        params = IndicatorParams(window_n=self.N, bollinger_paper_literal=True)
        defined = np.all(np.isfinite(bands(grw_series, BOLLINGER, params)), axis=0)
        assert not np.any(defined[: 2 * self.N - 2])
        assert np.all(defined[2 * self.N - 2 :])

    def test_paper_literal_bollinger_oracle(self, grw_series):
        n = self.N
        closes = grw_series.prices("close")
        params = IndicatorParams(window_n=n, bollinger_paper_literal=True)
        upper, _, mid = bands(grw_series, BOLLINGER, params)
        smas = sma(closes, n)
        for t in (2 * n - 2, 100, len(grw_series) - 1):
            middle = closes[t - n + 1 : t + 1].mean()
            sigma = math.sqrt(
                sum((closes[i] - smas[i]) ** 2 for i in range(t - n + 1, t + 1)) / n
            )
            assert mid[t] == pytest.approx(middle, rel=1e-9)
            assert upper[t] == pytest.approx(middle + 2 * sigma, rel=1e-9)

    def test_random_sweep_small(self):
        """Mini version of the big oracle sweep: 25 seeded series."""
        for seed in range(25):
            days = 40 + (seed * 13) % 80
            series = generate(GenSpec(kind="grw", days=days, seed=seed))
            dc = bands(series, DONCHIAN)
            bb = bands(series, BOLLINGER)
            kc = bands(series, KELTNER)
            for t in range(self.N - 1, days, 7):
                for got, oracle in (
                    (dc, oracle_donchian(series, self.N, t)),
                    (bb, oracle_bollinger(series, self.N, 2.0, t)),
                    (kc, oracle_keltner(series, self.N, 2.0, t)),
                ):
                    assert got[0][t] == pytest.approx(oracle[0], rel=1e-9)
                    assert got[1][t] == pytest.approx(oracle[1], rel=1e-9)
                    assert got[2][t] == pytest.approx(oracle[2], rel=1e-9)


class TestParams:
    def test_bad_window(self):
        with pytest.raises(ValueError, match="window_n"):
            IndicatorParams(window_n=0)

    def test_bool_window_refused(self, grw_series):
        """True would count as a window of 1."""
        with pytest.raises(ValueError, match="window_n must be an integer >= 1, got True"):
            IndicatorParams(window_n=True)
        for fn, values in ((sma, np.arange(5.0)), (ema, np.arange(5.0)), (atr, grw_series)):
            with pytest.raises(ValueError, match="window must be an integer >= 1, got True"):
                fn(values, True)

    def test_negative_k(self):
        with pytest.raises(ValueError, match="keltner_k"):
            IndicatorParams(keltner_k=-1.0)

    @pytest.mark.parametrize("key", ["bollinger_k", "keltner_k"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "2.0", None, 1 + 0j])
    def test_non_real_k_refused(self, key, value):
        """True passes k >= 0 and would compute what 1.0 computes; a string, None or a complex is no multiplier."""
        with pytest.raises(ValueError, match=f"^{key} must be a finite non-negative real number, got {re.escape(repr(value))}$"):
            IndicatorParams(**{key: value})

    @pytest.mark.parametrize("key", ["bollinger_k", "keltner_k"])
    def test_real_k_accepted(self, key):
        """Any real multiplier: an int, a numpy float or a numpy int."""
        for value in (0, 3, np.float64(1.5), np.int64(2)):
            assert getattr(IndicatorParams(**{key: value}), key) == value
