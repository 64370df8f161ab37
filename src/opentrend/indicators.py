"""Rolling band indicators over daily bars: Donchian, Bollinger, Keltner.

All rolling quantities use an n-day window ending at the current day
(indices t-n+1 .. t), so the first n-1 positions of every output are
undefined.  Undefined values are marked with NaN — never zero — so that a
leaked warm-up value poisons downstream math loudly instead of silently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from opentrend.ohlc import OhlcSeries

DONCHIAN = "donchian"
BOLLINGER = "bollinger"
KELTNER = "keltner"

#: column names of the nine band values in canonical feature order
CHANNEL_COLUMNS = {
    DONCHIAN: ("dc_u", "dc_l", "dc_m"),
    BOLLINGER: ("bb_u", "bb_l", "bb_m"),
    KELTNER: ("kc_u", "kc_l", "kc_m"),
}


@dataclass(frozen=True)
class IndicatorParams:
    """Shared indicator settings.

    ``bollinger_paper_literal`` switches the Bollinger deviation center from
    the conventional single window mean to a per-index rolling mean inside
    the sum; the literal variant needs a longer warm-up (2n-2 instead of n-1).
    """

    window_n: int = 20
    bollinger_k: float = 2.0
    keltner_k: float = 2.0
    bollinger_paper_literal: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.window_n, bool) or not isinstance(self.window_n, int) or self.window_n < 1:
            raise ValueError(f"window_n must be an integer >= 1, got {self.window_n!r}")
        for key in ("bollinger_k", "keltner_k"):
            k = getattr(self, key)
            # a bool passes k >= 0, and True would compute what 1.0 computes under another config text
            if isinstance(k, bool) or not isinstance(k, numbers.Real) or not (k >= 0 and np.isfinite(k)):
                raise ValueError(f"{key} must be a finite non-negative real number, got {k!r}")
        if not isinstance(self.bollinger_paper_literal, bool):  # a truthy "false" would switch it on
            raise ValueError(f"bollinger_paper_literal must be a bool, got {self.bollinger_paper_literal!r}")


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------


def _nan_prefix(n_undefined: int, tail: np.ndarray) -> np.ndarray:
    out = np.full(n_undefined + tail.size, np.nan)
    out[n_undefined:] = tail
    return out


def sma(values, n: int) -> np.ndarray:
    """n-day simple moving average; positions before index n-1 are NaN."""
    x = np.asarray(values, dtype=np.float64)
    _check_window(x.size, n)
    return _nan_prefix(n - 1, sliding_window_view(x, n).mean(axis=1))


def ema(values, n: int) -> np.ndarray:
    """n-day exponential moving average, alpha = 2/(n+1).

    Seeded at index n-1 with the SMA of the first n values; positions before
    that are NaN.
    """
    x = np.asarray(values, dtype=np.float64)
    _check_window(x.size, n)
    alpha = 2.0 / (n + 1)
    out = np.full(x.size, np.nan)
    level = x[:n].mean()
    out[n - 1] = level
    for t in range(n, x.size):
        level = alpha * x[t] + (1.0 - alpha) * level
        out[t] = level
    return out


def true_range(series: OhlcSeries) -> np.ndarray:
    """Daily true range; defined from day 0 (first day has no previous close)."""
    hi = series.prices("high")
    lo = series.prices("low")
    cl = series.prices("close")
    tr = hi - lo
    if len(series) > 1:
        prev_close = cl[:-1]
        tr = np.concatenate(
            [
                tr[:1],
                np.maximum(hi[1:] - lo[1:], np.maximum(np.abs(hi[1:] - prev_close), np.abs(lo[1:] - prev_close))),
            ]
        )
    return tr


def atr(series: OhlcSeries, n: int) -> np.ndarray:
    """Average true range: n-day rolling mean of the true range."""
    return sma(true_range(series), n)


def _check_window(size: int, n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"window must be an integer >= 1, got {n!r}")
    if size < n:
        raise ValueError(f"series too short for window {n}: got {size} values")


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def channel_arrays(series: OhlcSeries, params: IndicatorParams) -> dict[str, np.ndarray]:
    """All nine band series keyed by canonical column name, NaN while undefined."""
    n = params.window_n
    _check_window(len(series), n)
    hi = series.prices("high")
    lo = series.prices("low")
    cl = series.prices("close")

    dc_u = _nan_prefix(n - 1, sliding_window_view(hi, n).max(axis=1))
    dc_l = _nan_prefix(n - 1, sliding_window_view(lo, n).min(axis=1))
    dc_m = (dc_u + dc_l) / 2.0

    bb_m = sma(cl, n)
    if params.bollinger_paper_literal:
        # deviation center is the rolling mean at each summed index; the
        # center itself is undefined for the first n-1 days, so sigma (and
        # the bands) only exist from index 2n-2 on
        deviations = (cl - bb_m) ** 2
        var = _nan_prefix(n - 1, sliding_window_view(deviations, n).mean(axis=1))
    else:
        var = _nan_prefix(n - 1, sliding_window_view(cl, n).var(axis=1))
    sigma = np.sqrt(np.maximum(var, 0.0))
    bb_u = bb_m + params.bollinger_k * sigma
    bb_l = bb_m - params.bollinger_k * sigma

    kc_m = ema(cl, n)
    spread = params.keltner_k * atr(series, n)
    kc_u = kc_m + spread
    kc_l = kc_m - spread

    return {
        "dc_u": dc_u, "dc_l": dc_l, "dc_m": dc_m,
        "bb_u": bb_u, "bb_l": bb_l, "bb_m": bb_m,
        "kc_u": kc_u, "kc_l": kc_l, "kc_m": kc_m,
    }

