"""Daily OHLC bars: CSV ingestion, validation, and log-return volatility.

Input files are plain UTF-8 CSV with the exact header ``date,open,high,low,close``,
ISO-8601 dates, one trading day per row, strictly increasing dates.  Anything
else is rejected loudly — bad bars must never reach the feature stage.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "date,open,high,low,close"
PRICE_FIELDS = ("open", "high", "low", "close")


class OhlcError(ValueError):
    """Malformed or invariant-violating OHLC input."""


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    return not isinstance(value, (bool, np.bool_)) and isinstance(value, (int, float, np.integer, np.floating))


@dataclass(frozen=True, eq=False)
class OhlcSeries:
    """One market's daily bars, stored as one read-only float64 array per field.

    Construction checks every bar at once: dates are ``datetime.date``
    values (not datetimes) and strictly increase, prices are positive finite
    numbers, and low <= open, close <= high.  A violation
    names the first offending date.
    """

    market: str
    dates: tuple[dt.date, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self) -> None:
        dates = tuple(self.dates)
        object.__setattr__(self, "dates", dates)
        # a datetime is a date subclass that does not compare with a date
        t = next((i for i, day in enumerate(dates) if type(day) is not dt.date), None)
        if t is not None:
            raise OhlcError(f"dates must be datetime.date values, got {dates[t]!r} at position {t}")
        for name in PRICE_FIELDS:
            given = getattr(self, name)
            raw = np.asarray(given)
            if raw.shape != (len(dates),):
                raise OhlcError(f"{name} has shape {raw.shape}, expected one value per date ({len(dates)})")
            if not (isinstance(given, np.ndarray) and raw.dtype.kind in "iuf"):
                # numpy would turn True into 1.0 and "5" into 5.0: check what was given
                t = next((i for i, v in enumerate(given) if not _is_number(v)), None)
                if t is not None:
                    raise OhlcError(f"{name} must be a number at {dates[t]}, got {given[t]!r}")
            column = np.array(raw, dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

        prices = np.vstack([self.prices(name) for name in PRICE_FIELDS])
        bad = ~(np.isfinite(prices) & (prices > 0.0))
        if bad.any():
            t = int(np.flatnonzero(bad.any(axis=0))[0])
            f = int(np.flatnonzero(bad[:, t])[0])
            raise OhlcError(
                f"{PRICE_FIELDS[f]} must be a positive finite price at {dates[t]}, got {prices[f, t].item()!r}"
            )
        o, h, lo, c = prices
        broken = np.flatnonzero(~((lo <= o) & (o <= h) & (lo <= c) & (c <= h)))
        if broken.size:
            t = int(broken[0])
            raise OhlcError(
                f"bar invariant violated at {dates[t].isoformat()}: "
                f"open={o[t].item()} high={h[t].item()} low={lo[t].item()} close={c[t].item()}"
            )
        # compared as dates: a datetime64 array of them costs milliseconds on a paper-scale market
        t = next((i for i in range(1, len(dates)) if dates[i] <= dates[i - 1]), None)
        if t is not None:
            raise OhlcError(f"non-increasing dates: {dates[t].isoformat()} follows {dates[t - 1].isoformat()}")

    def __len__(self) -> int:
        return len(self.dates)

    def prices(self, field: str) -> np.ndarray:
        """The stored read-only float64 array of one price field."""
        if field not in PRICE_FIELDS:
            raise OhlcError(f"unknown price field {field!r}")
        return getattr(self, field)


@dataclass(frozen=True)
class VolatilityStats:
    """Log-return volatility summary over a bar series."""

    n_returns: int
    mean_return: float
    variance: float
    daily_volatility: float
    periodized_volatility: float
    period_days: int

    def __post_init__(self) -> None:
        if self.n_returns < 2:
            raise OhlcError("volatility needs at least 2 returns")
        if self.variance < 0.0 or self.daily_volatility < 0.0:
            raise OhlcError("variance and volatility must be non-negative")


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------


def parse_csv(text: str, market: str = "series") -> OhlcSeries:
    """Parse CSV text into an OhlcSeries, failing fast on any defect.

    Rejects: missing/mangled header, no data rows, wrong field counts,
    non-ISO dates, non-numeric or non-positive prices, high/low bracket
    violations, and duplicate or out-of-order dates.  Never reorders rows
    silently.
    """
    lines = text.lstrip("﻿").splitlines()
    # trailing blank lines are tolerated, interior ones are not
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise OhlcError("empty file: no header row")
    if lines[0].strip() != CSV_HEADER:
        raise OhlcError(f"bad header: expected {CSV_HEADER!r}, got {lines[0].strip()!r}")
    if len(lines) == 1:
        raise OhlcError("no data rows after the header")
    dates: list[dt.date] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            raise OhlcError(f"blank row at line {lineno}")
        parts = line.strip().split(",")
        if len(parts) != 5:
            raise OhlcError(f"malformed row at line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            dates.append(dt.date.fromisoformat(parts[0]))
        except ValueError:
            raise OhlcError(f"malformed row at line {lineno}: bad date {parts[0]!r}") from None
        values = []
        for name, raw in zip(PRICE_FIELDS, parts[1:]):
            try:
                values.append(float(raw))
            except ValueError:
                raise OhlcError(f"malformed row at line {lineno}: bad {name} {raw!r}") from None
        rows.append(values)
    columns = np.array(rows, dtype=np.float64).reshape(len(rows), len(PRICE_FIELDS)).T
    return OhlcSeries(market, tuple(dates), *columns)


def serialize_csv(series: OhlcSeries) -> str:
    """Render a series back to CSV text (round-trips through parse_csv)."""
    # tolist() yields Python floats, whose repr is the shortest round-trip form
    columns = [series.prices(name).tolist() for name in PRICE_FIELDS]
    out = [CSV_HEADER]
    for day, o, h, l, c in zip(series.dates, *columns):
        out.append(f"{day.isoformat()},{o!r},{h!r},{l!r},{c!r}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# volatility (log returns, unbiased variance)
# ---------------------------------------------------------------------------


def volatility(series: OhlcSeries, price_field: str = "close", period_days: int = 252) -> VolatilityStats:
    """Sample volatility of day-over-day log returns of one price field.

    r(t) = ln(P(t) / P(t-1)); variance is the unbiased (N-1) sample variance
    of the returns; the periodized figure scales the daily one by
    sqrt(period_days).
    """
    if isinstance(period_days, bool) or not isinstance(period_days, int) or period_days <= 0:
        raise OhlcError(f"period_days must be a positive integer, got {period_days!r}")
    if len(series) < 3:
        raise OhlcError(f"volatility needs at least 3 bars, got {len(series)}")
    prices = series.prices(price_field)
    returns = np.log(prices[1:] / prices[:-1])
    variance = float(returns.var(ddof=1))
    variance = max(variance, 0.0)
    daily = math.sqrt(variance)
    return VolatilityStats(
        n_returns=int(returns.size),
        mean_return=float(returns.mean()),
        variance=variance,
        daily_volatility=daily,
        periodized_volatility=daily * math.sqrt(period_days),
        period_days=period_days,
    )
