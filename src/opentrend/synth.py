"""Seeded synthetic OHLC generators for tests, demos, and benchmarks.

Four regimes:

* ``constant``: every price equal — the degenerate market.
* ``grw``: geometric random walk; close-to-close log returns are exactly
  N(drift, volatility^2) draws, so sample volatility calibrates.
* ``trend``: log-linear drift plus noise.
* ``separable``: plants a dependency between today's close-vs-open sign and
  tomorrow's open direction with strength s in [0, 1]; at s=1 the
  open-vs-open label equals sign(r_cl) exactly, making the task linearly
  separable on one nowcast column.

All bars satisfy the OHLC invariants by construction and the same spec +
seed always yields the same series.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from opentrend.ohlc import OhlcSeries

CONSTANT = "constant"
GRW = "grw"
TREND = "trend"
SEPARABLE = "separable"
GENERATOR_KINDS = (CONSTANT, GRW, TREND, SEPARABLE)

_START_DATE = dt.date(2019, 4, 1)  # a Monday

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    CONSTANT: {"level": 100.0},
    GRW: {"start": 100.0, "drift": 0.0002, "volatility": 0.01},
    TREND: {"start": 100.0, "slope": 0.001, "noise": 0.005},
    SEPARABLE: {"start": 100.0, "signal_strength": 1.0, "move": 0.01, "gap": 0.004},
}


@dataclass(frozen=True)
class GenSpec:
    """What to generate: regime, length, seed, and regime parameters."""

    kind: str
    days: int
    seed: int = 0
    params: dict[str, float] = field(default_factory=dict)
    market: str = "synthetic"

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r} (known: {GENERATOR_KINDS})")
        if not isinstance(self.days, int) or self.days < 1:
            raise ValueError(f"days must be a positive integer, got {self.days!r}")
        unknown = set(self.params) - set(_DEFAULT_PARAMS[self.kind])
        if unknown:
            raise ValueError(
                f"unknown parameters for {self.kind}: {sorted(unknown)} "
                f"(known: {sorted(_DEFAULT_PARAMS[self.kind])})"
            )

    def resolved_params(self) -> dict[str, float]:
        return {**_DEFAULT_PARAMS[self.kind], **self.params}


def trading_dates(days: int, start: dt.date = _START_DATE) -> list[dt.date]:
    """Consecutive weekdays from start, inclusive."""
    out: list[dt.date] = []
    day = start
    while len(out) < days:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def _wicks(open_: float, close: float, stretch_up: float, stretch_down: float) -> tuple[float, float]:
    """A high above and a low below both open and close."""
    high = max(open_, close) * float(np.exp(abs(stretch_up)))
    low = min(open_, close) * float(np.exp(-abs(stretch_down)))
    return high, low


def generate(spec: GenSpec) -> OhlcSeries:
    """Generate one series (see generate_with_directions for planted truth)."""
    return generate_with_directions(spec)[0]


def generate_with_directions(spec: GenSpec) -> tuple[OhlcSeries, np.ndarray]:
    """Generate a series plus the generator's own record of open directions.

    directions[t] is +1 when open(t+1) > open(t) and -1 otherwise, for
    t = 0 .. days-2; for non-separable regimes it is simply read off the
    generated opens, for the separable regime it is the planted signal
    realization itself.
    """
    p = spec.resolved_params()
    rng = np.random.default_rng(spec.seed)
    dates = trading_dates(spec.days)

    opens, highs, lows, closes = (np.empty(spec.days) for _ in range(4))
    if spec.kind == CONSTANT:
        opens[:] = highs[:] = lows[:] = closes[:] = p["level"]
    elif spec.kind in (GRW, TREND):
        if spec.kind == GRW:
            log_returns = rng.normal(p["drift"], p["volatility"], size=spec.days - 1)
            volatility = p["volatility"]
        else:
            log_returns = p["slope"] + rng.normal(0.0, p["noise"], size=spec.days - 1)
            volatility = p["noise"]
        closes[:] = p["start"] * np.exp(np.concatenate([[0.0], np.cumsum(log_returns)]))
        gaps = rng.normal(0.0, 0.3 * volatility + 1e-6, size=spec.days)
        stretches = rng.normal(0.0, 0.5 * volatility + 1e-6, size=(spec.days, 2))
        for t in range(spec.days):
            opens[t] = closes[t] * float(np.exp(gaps[t])) if t else p["start"]
            highs[t], lows[t] = _wicks(opens[t], closes[t], stretches[t, 0], stretches[t, 1])
    else:  # separable
        s = float(p["signal_strength"])
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"signal_strength must be in [0, 1], got {s}")
        move = float(p["move"])
        open_ = p["start"]
        planted = np.zeros(max(spec.days - 1, 0), dtype=np.int64)
        for t in range(spec.days):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            # |r_cl| ~ U[0.5, 1.5]*move; the extension of the bar past the
            # close and the opposite wick both get the SAME distribution
            # (amplitude + extension) on up and down days, so r_hi and r_lo
            # carry no label information — only r_cl's sign does.
            amplitude = move * (0.5 + rng.random())
            extension = move * 0.5 * rng.random()
            mimic = move * (0.5 + rng.random()) + move * 0.5 * rng.random()
            close = open_ * float(np.exp(sign * amplitude))
            if sign > 0:
                high = close * float(np.exp(extension))
                low = open_ * float(np.exp(-mimic))
            else:
                low = close * float(np.exp(-extension))
                high = open_ * float(np.exp(mimic))
            opens[t], highs[t], lows[t], closes[t] = open_, high, low, close
            if t < spec.days - 1:
                follow = rng.random() < s
                direction = sign if follow else (1.0 if rng.random() < 0.5 else -1.0)
                open_ = open_ * float(np.exp(direction * p["gap"] * (0.5 + rng.random())))
                planted[t] = int(direction)

    series = OhlcSeries(spec.market, tuple(dates), opens, highs, lows, closes)
    if spec.kind == SEPARABLE:
        return series, planted
    directions = np.where(opens[1:] > opens[:-1], 1, -1).astype(np.int64)
    return series, directions
