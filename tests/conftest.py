"""Shared fixtures: deterministic synthetic market data, and the config rules' refusal texts."""

from __future__ import annotations

import datetime as dt

import pytest

from opentrend.ohlc import OhlcSeries
from opentrend.synth import GenSpec, generate

#: the refusal text of the code that owns a key's rule, which config validation passes on after the key
OWNER_TEXT = {
    "split_ratio": "split ratio must be in (0, 1)",  # dataset.train_fraction
    "shap_mode": "unknown attribution mode",  # explain.attribution_mode
    "shap_background": "background size must be >= 1",  # explain.background_sample
    "shap_rows": "attributed row count must be >= 1",  # explain.row_subsample
    "shap_permutations": "n_permutations must be >= 1",  # explain.shapley_sampled
}


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
