"""Feature assembly, set masks, matrix selection, and CSV export."""

from __future__ import annotations

import datetime as dt
import itertools
import math
import random

import numpy as np
import pytest

from conftest import series_from_rows
from opentrend.features import (
    CANONICAL_COLUMNS,
    HISTORICAL_COLUMNS,
    INTRINSIC_COLUMNS,
    NAMED_FEATURE_SETS,
    NOWCAST_COLUMNS,
    FeatureMatrix,
    FeatureSetMask,
    assemble,
    export_csv,
    select,
)
from opentrend.indicators import IndicatorParams, channel_arrays
from opentrend.ohlc import PRICE_FIELDS, OhlcSeries


# each canonical column's group, read from the column names alone
_ORACLE_GROUP = {
    c: "INT" if c in ("open", "high", "low", "close") else "NOW" if c.startswith("r_") else c[:2].upper()
    for c in CANONICAL_COLUMNS
}
SUBSETS = [
    subset
    for k in range(1, 6)
    for subset in itertools.combinations(("INT", "DC", "BB", "KC", "NOW"), k)
]


def now_columns(series):
    """r_hi, r_lo, r_cl of each bar: the NOW columns assembled with a one-day window."""
    return select(assemble(series, IndicatorParams(window_n=1)), FeatureSetMask.from_name("NOW")).values


class TestNowcast:
    def test_flat_bar_is_all_zero(self):
        r_hi, r_lo, r_cl = now_columns(series_from_rows([(100.0, 100.0, 100.0, 100.0)]))[0]
        assert r_hi == 0.0 and r_lo == 0.0 and r_cl == 0.0

    def test_log_ratios(self):
        r_hi, r_lo, r_cl = now_columns(series_from_rows([(100.0, 110.0, 95.0, 105.0)]))[0]
        assert r_hi == pytest.approx(math.log(1.10))
        assert r_lo == pytest.approx(math.log(0.95))
        assert r_cl == pytest.approx(math.log(1.05))

    def test_scale_invariance(self):
        a, b = now_columns(series_from_rows([(100.0, 103.0, 99.0, 101.0), (700.0, 721.0, 693.0, 707.0)]))
        assert a == pytest.approx(b)

    def test_sign_conventions(self, grw_series):
        r_hi, r_lo, r_cl = now_columns(grw_series).T
        assert np.all(r_hi >= 0.0) and np.all(r_lo <= 0.0)
        assert np.all(r_lo <= r_cl) and np.all(r_cl <= r_hi)


class TestFeatureSetMask:
    def test_named_set_column_counts(self):
        expected = {"INT": 4, "INT+HIST": 13, "INT+NOW": 7, "INT+HIST+NOW": 16}
        for name in NAMED_FEATURE_SETS:
            assert len(FeatureSetMask.from_name(name).columns) == expected[name]

    def test_name_round_trips(self):
        for name in NAMED_FEATURE_SETS + ("INT+DC", "INT+BB+NOW", "DC+KC", "NOW"):
            assert FeatureSetMask.from_name(name).name == name

    def test_full_mask_is_canonical_order(self):
        mask = FeatureSetMask.from_name("INT+HIST+NOW")
        assert mask.columns == CANONICAL_COLUMNS

    def test_per_channel_selection(self):
        mask = FeatureSetMask.from_name("INT+KC")
        assert mask.columns == INTRINSIC_COLUMNS + ("kc_u", "kc_l", "kc_m")

    def test_unknown_part_rejected(self):
        with pytest.raises(ValueError, match="unknown feature set part"):
            FeatureSetMask.from_name("INT+MACD")

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty feature set"):
            FeatureSetMask(groups=())

    def test_groups_out_of_canonical_order_rejected(self):
        with pytest.raises(ValueError, match="canonical order"):
            FeatureSetMask(groups=("NOW", "INT"))

    @pytest.mark.parametrize("subset", SUBSETS, ids="+".join)
    def test_every_subset_in_any_order_and_case(self, subset):
        """Columns follow canonical order whatever the spelling; the name round-trips."""
        rng = random.Random("+".join(subset))
        parts = [rng.choice((str.lower, str.upper, str.capitalize))(g) for g in subset]
        rng.shuffle(parts)
        mask = FeatureSetMask.from_name("+".join(parts))
        want = tuple(c for c in CANONICAL_COLUMNS if _ORACLE_GROUP[c] in subset)
        assert mask.groups == subset
        assert mask.columns == want
        again = FeatureSetMask.from_name(mask.name)
        assert again == mask and again.name == mask.name

    def test_case_and_spacing_tolerant(self):
        assert FeatureSetMask.from_name(" int + now ").name == "INT+NOW"


class TestAssemble:
    def test_row_count(self, grw_series):
        matrix = assemble(grw_series)
        assert matrix.n_rows == len(matrix) == len(grw_series) - 20 + 1

    def test_minimum_length_yields_one_row(self, make_grw):
        series = make_grw(days=20, seed=7)
        matrix = assemble(series)
        assert matrix.n_rows == 1
        assert matrix.dates[0] == series.dates[-1]

    def test_too_short_rejected(self, make_grw):
        with pytest.raises(ValueError, match="too short"):
            assemble(make_grw(days=19, seed=7))

    def test_paper_literal_mode_needs_longer_series(self, make_grw):
        params = IndicatorParams(bollinger_paper_literal=True)
        series = make_grw(days=39, seed=3)
        matrix = assemble(series, params)
        assert matrix.n_rows == 1  # first defined index is 2n-2 = 38
        with pytest.raises(ValueError, match="no fully-defined"):
            assemble(make_grw(days=38, seed=3), params)

    def test_no_lookahead(self, grw_series):
        """Day t's row must be computable from bars 0..t alone."""
        full = assemble(grw_series)
        cut = 60
        head = slice(0, cut + 1)
        truncated = OhlcSeries(
            grw_series.market, grw_series.dates[head], *(grw_series.prices(f)[head] for f in PRICE_FIELDS)
        )
        partial = assemble(truncated)
        assert partial.dates[-1] == grw_series.dates[cut]
        np.testing.assert_array_equal(partial.values[-1], full.values[cut - 19])

    def test_intrinsic_matches_bars(self, grw_series):
        matrix = assemble(grw_series)
        assert matrix.dates == grw_series.dates[19:]
        for j, name in enumerate(PRICE_FIELDS):
            np.testing.assert_array_equal(matrix.values[:, j], grw_series.prices(name)[19:])

    def test_values_ordering(self, grw_series):
        matrix = assemble(grw_series)
        assert matrix.columns == CANONICAL_COLUMNS
        arrays = channel_arrays(grw_series, IndicatorParams())
        for j, column in enumerate(HISTORICAL_COLUMNS):
            np.testing.assert_array_equal(matrix.values[:, 4 + j], arrays[column][19:])
        o, h, l, c = (grw_series.prices(name)[19:].tolist() for name in PRICE_FIELDS)
        logs = [[math.log(p / o[t]) for p in (h[t], l[t], c[t])] for t in range(len(o))]
        np.testing.assert_array_equal(matrix.values[:, 13:], logs)


class TestSelect:
    def test_column_projection(self, grw_series):
        matrix = assemble(grw_series)
        full = select(matrix, FeatureSetMask.from_name("INT+HIST+NOW"))
        sub = select(matrix, FeatureSetMask.from_name("INT+NOW"))
        assert sub.columns == INTRINSIC_COLUMNS + NOWCAST_COLUMNS
        for col in sub.columns:
            i, j = full.columns.index(col), sub.columns.index(col)
            np.testing.assert_array_equal(full.values[:, i], sub.values[:, j])

    def test_shapes_and_dates(self, grw_series):
        full = assemble(grw_series)
        matrix = select(full, FeatureSetMask.from_name("INT+HIST"))
        assert matrix.values.shape == (full.n_rows, 13)
        assert matrix.dates == full.dates
        assert matrix.n_rows == full.n_rows


class TestValidation:
    def test_matrix_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            FeatureMatrix(
                dates=(dt.date(2019, 4, 1),),
                columns=("open", "close"),
                values=np.zeros((2, 2)),
            )

    def test_matrix_non_finite(self):
        with pytest.raises(ValueError, match="non-finite value"):
            FeatureMatrix(
                dates=(dt.date(2019, 4, 1),),
                columns=("open",),
                values=np.array([[np.inf]]),
            )


class TestExportCsv:
    def test_without_labels_keeps_all_rows(self, grw_series):
        matrix = select(assemble(grw_series), FeatureSetMask.from_name("INT"))
        text = export_csv(matrix)
        lines = text.strip().splitlines()
        assert lines[0] == "date,open,high,low,close"
        assert len(lines) == matrix.n_rows + 1

    def test_with_labels_drops_final_row(self, grw_series):
        matrix = select(assemble(grw_series), FeatureSetMask.from_name("INT"))
        labels = {"y_op": np.zeros(matrix.n_rows - 1, dtype=np.int64)}
        text = export_csv(matrix, labels)
        lines = text.strip().splitlines()
        assert lines[0] == "date,open,high,low,close,y_op"
        assert len(lines) == matrix.n_rows  # header + (n_rows - 1) data lines
        assert lines[1].endswith(",0")

    def test_values_round_trip(self, grw_series):
        matrix = select(assemble(grw_series), FeatureSetMask.from_name("INT+HIST+NOW"))
        lines = export_csv(matrix).strip().splitlines()
        cells = lines[1].split(",")
        assert cells[0] == matrix.dates[0].isoformat()
        parsed = np.array([float(c) for c in cells[1:]])
        np.testing.assert_array_equal(parsed, matrix.values[0])

    def test_misaligned_labels_rejected(self, grw_series):
        matrix = select(assemble(grw_series), FeatureSetMask.from_name("INT"))
        with pytest.raises(ValueError, match="label column"):
            export_csv(matrix, {"y_op": np.zeros(matrix.n_rows, dtype=np.int64)})
