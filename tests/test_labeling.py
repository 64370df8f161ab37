"""Direction labels: strict-inequality comparisons against four reference prices."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from conftest import series_from_rows
from opentrend.labeling import ALL_TASKS, LabelVector, TaskKind, make_labels
from opentrend.synth import GenSpec, generate


def two_day_series(day1, day2):
    """day1/day2 are (open, high, low, close) tuples."""
    return series_from_rows((day1, day2), market="pair")


def oracle_label(series, task, t):
    reference = series.prices(task.reference_field)[t]
    return 1 if series.prices("open")[t + 1] > reference else 0


class TestTaskKind:
    def test_codes_round_trip(self):
        for task in ALL_TASKS:
            assert TaskKind.from_code(task.value) is task

    def test_from_code_tolerates_case(self):
        assert TaskKind.from_code(" OP ") is TaskKind.OP_VS_OP

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="unknown task code"):
            TaskKind.from_code("vol")

    def test_reference_fields(self):
        assert TaskKind.OP_VS_OP.reference_field == "open"
        assert TaskKind.OP_VS_HIGH.reference_field == "high"
        assert TaskKind.OP_VS_LOW.reference_field == "low"
        assert TaskKind.OP_VS_CLOSE.reference_field == "close"

    def test_label_columns(self):
        assert [t.label_column for t in ALL_TASKS] == ["y_op", "y_hi", "y_lo", "y_cl"]


class TestTwoDayCases:
    # day 1: open 100, high 110, low 95, close 105
    DAY1 = (100.0, 110.0, 95.0, 105.0)

    def check(self, next_open, expected):
        series = two_day_series(self.DAY1, (next_open, next_open, next_open, next_open))
        for task, want in expected.items():
            vec = make_labels(series, task, first_index=0)
            assert len(vec) == 1
            assert vec.labels[0] == want, f"{task} with next open {next_open}"

    def test_next_open_above_everything(self):
        self.check(111.0, {t: 1 for t in ALL_TASKS})

    def test_next_open_below_everything(self):
        self.check(94.0, {t: 0 for t in ALL_TASKS})

    def test_next_open_between_close_and_high(self):
        self.check(
            107.0,
            {
                TaskKind.OP_VS_OP: 1,
                TaskKind.OP_VS_HIGH: 0,
                TaskKind.OP_VS_LOW: 1,
                TaskKind.OP_VS_CLOSE: 1,
            },
        )

    def test_ties_are_zero(self):
        for task, price in (
            (TaskKind.OP_VS_OP, 100.0),
            (TaskKind.OP_VS_HIGH, 110.0),
            (TaskKind.OP_VS_LOW, 95.0),
            (TaskKind.OP_VS_CLOSE, 105.0),
        ):
            series = two_day_series(self.DAY1, (price, price, price, price))
            assert make_labels(series, task, 0).labels[0] == 0


class TestVectorShape:
    def test_length_and_dates(self, grw_series):
        first = 19
        vec = make_labels(grw_series, TaskKind.OP_VS_CLOSE, first)
        assert len(vec) == len(grw_series) - 1 - first
        assert vec.dates[0] == grw_series.dates[first]
        assert vec.dates[-1] == grw_series.dates[-2]

    def test_one_shorter_than_feature_rows(self, grw_series):
        from opentrend.features import assemble

        matrix = assemble(grw_series)
        vec = make_labels(grw_series, TaskKind.OP_VS_OP, 19)
        assert len(vec) == matrix.n_rows - 1

    def test_first_index_bounds(self, make_grw):
        series = make_grw(days=10, seed=2)
        with pytest.raises(ValueError, match="no labelable day"):
            make_labels(series, TaskKind.OP_VS_OP, 9)
        with pytest.raises(ValueError, match="non-negative"):
            make_labels(series, TaskKind.OP_VS_OP, -1)
        with pytest.raises(ValueError, match="non-negative integer, got True"):
            make_labels(series, TaskKind.OP_VS_OP, True)  # would count as index 1
        assert len(make_labels(series, TaskKind.OP_VS_OP, 8)) == 1

    def test_alignment_enforced(self):
        with pytest.raises(ValueError, match="align"):
            LabelVector(
                task=TaskKind.OP_VS_OP,
                dates=(dt.date(2019, 4, 1),),
                labels=np.array([1, 0]),
            )

    def test_binary_enforced(self):
        with pytest.raises(ValueError, match="0 or 1"):
            LabelVector(
                task=TaskKind.OP_VS_OP,
                dates=(dt.date(2019, 4, 1),),
                labels=np.array([2]),
            )


class TestOracle:
    def test_brute_force_sweep(self):
        for seed in range(40):
            series = generate(GenSpec(kind="grw", days=30 + seed, seed=seed))
            for task in ALL_TASKS:
                vec = make_labels(series, task, first_index=0)
                for i, t in enumerate(range(len(series) - 1)):
                    assert vec.labels[i] == oracle_label(series, task, t)

    def test_monotone_consistency(self):
        """high >= every other reference >= low, so labels order the same way:

        beating the high implies beating everything; failing to beat the low
        implies failing everything.
        """
        for seed in range(40):
            series = generate(GenSpec(kind="grw", days=60, seed=1000 + seed))
            by_task = {t: make_labels(series, t, 0).labels for t in ALL_TASKS}
            hi, lo = by_task[TaskKind.OP_VS_HIGH], by_task[TaskKind.OP_VS_LOW]
            for other in (TaskKind.OP_VS_OP, TaskKind.OP_VS_CLOSE):
                assert np.all(by_task[other][hi == 1] == 1)
                assert np.all(by_task[other][lo == 0] == 0)
