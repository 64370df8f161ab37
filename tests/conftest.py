"""Shared fixtures: deterministic synthetic market data."""

from __future__ import annotations

import datetime as dt

import pytest

from opentrend.ohlc import OhlcSeries
from opentrend.synth import GenSpec, generate


def series_from_rows(rows, market="m", start=dt.date(2019, 4, 1)) -> OhlcSeries:
    """A series from (open, high, low, close) rows on consecutive calendar days from start."""
    rows = list(rows)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(rows)))
    return OhlcSeries(market, dates, *(list(column) for column in zip(*rows)))


@pytest.fixture
def grw_series():
    """A 260-day geometric random walk (fixed seed)."""
    return generate(GenSpec(kind="grw", days=260, seed=1234))


@pytest.fixture
def make_grw():
    """Factory for geometric-random-walk series of any length/seed."""

    def build(days: int, seed: int = 0, **params):
        return generate(GenSpec(kind="grw", days=days, seed=seed, params=params))

    return build
