"""Binding, chronological splits, and leak-free evaluation modes."""

from __future__ import annotations

import numpy as np
import pytest

from opentrend.dataset import (
    EvalMode,
    LabeledDataset,
    Split,
    bind,
    rolling_predict,
    split,
)
from opentrend.features import FeatureMatrix, FeatureSetMask, assemble, select
from opentrend.labeling import TaskKind, make_labels
from opentrend.learners import preset


def build_dataset(series, feature_set="INT+NOW", task=TaskKind.OP_VS_OP):
    full = assemble(series)
    matrix = select(full, FeatureSetMask.from_name(feature_set))
    first_index = len(series) - full.n_rows
    labels = make_labels(series, task, first_index)
    return bind(matrix, labels, series.market)


def first_rows(matrix, stop):
    """The matrix cut to rows [:stop]."""
    return FeatureMatrix(dates=matrix.dates[:stop], columns=matrix.columns, values=matrix.values[:stop])


class TestCounts:
    """Point and train counts for the documented series lengths."""

    @pytest.mark.parametrize(
        "days,n_points,n_train,n_test",
        [(1256, 1236, 989, 247), (1237, 1217, 974, 243)],
    )
    def test_documented_series_lengths(self, days, n_points, n_train, n_test):
        import math
        from fractions import Fraction

        assert days - 20 == n_points
        got_train = math.ceil(Fraction("0.8") * n_points)
        assert got_train == n_train
        assert n_points - got_train == n_test

    @pytest.mark.parametrize(
        "days,n_points,n_train,n_test",
        [(1256, 1236, 989, 247), (1237, 1217, 974, 243)],
    )
    def test_end_to_end_counts(self, make_grw, days, n_points, n_train, n_test):
        ds = build_dataset(make_grw(days=days, seed=11), feature_set="INT")
        assert ds.n_points == n_points
        sp = split(ds, 0.8)
        assert sp.n_train == n_train
        assert sp.n_test == n_test

    def test_exact_ceiling_no_float_creep(self, make_grw):
        # 0.8 * 10 must give exactly 8 train points, not ceil(8.000000000000002) = 9
        ds = build_dataset(make_grw(days=30, seed=5), feature_set="INT")
        assert ds.n_points == 10
        sp = split(ds, 0.8)
        assert sp.n_train == 8
        assert sp.n_test == 2

    def test_ceil_rounds_up_fractions(self, make_grw):
        ds = build_dataset(make_grw(days=31, seed=5), feature_set="INT")
        assert ds.n_points == 11
        assert split(ds, 0.8).n_train == 9  # ceil(8.8)

    def test_index_ranges_are_contiguous(self, make_grw):
        ds = build_dataset(make_grw(days=40, seed=5), feature_set="INT")
        sp = split(ds, 0.8)
        assert sp.test_indices == range(sp.n_train, ds.n_points)


class TestBind:
    def test_drops_final_row(self, grw_series):
        matrix = select(assemble(grw_series), FeatureSetMask.from_name("INT"))
        labels = make_labels(grw_series, TaskKind.OP_VS_CLOSE, 19)
        ds = bind(matrix, labels, grw_series.market)
        assert ds.n_points == matrix.n_rows - 1
        assert ds.matrix.dates == labels.dates
        np.testing.assert_array_equal(ds.matrix.values, matrix.values[:-1])

    def test_misaligned_lengths_rejected(self, grw_series):
        matrix = first_rows(select(assemble(grw_series), FeatureSetMask.from_name("INT")), -1)
        labels = make_labels(grw_series, TaskKind.OP_VS_CLOSE, 19)
        with pytest.raises(ValueError, match="alignment error"):
            bind(matrix, labels, grw_series.market)

    def test_misaligned_dates_rejected(self, grw_series):
        labels = make_labels(grw_series, TaskKind.OP_VS_CLOSE, 20)
        matrix = first_rows(select(assemble(grw_series), FeatureSetMask.from_name("INT")), len(labels) + 1)
        with pytest.raises(ValueError, match="dates disagree"):
            bind(matrix, labels, grw_series.market)


class TestSplitValidation:
    def test_bad_ratio(self, make_grw):
        ds = build_dataset(make_grw(days=40, seed=1), feature_set="INT")
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="split ratio"):
                split(ds, ratio)

    def test_degenerate_split(self, make_grw):
        # 22 days -> 2 points; ratio 0.8 -> ceil(1.6) = 2 train, 0 test
        ds = build_dataset(make_grw(days=22, seed=1), feature_set="INT")
        assert ds.n_points == 2
        with pytest.raises(ValueError, match="degenerate split"):
            split(ds, 0.8)

    def test_dataset_length_mismatch(self, make_grw):
        ds = build_dataset(make_grw(days=40, seed=1), feature_set="INT")
        other = build_dataset(make_grw(days=41, seed=1), feature_set="INT")
        sp = split(other, 0.8)
        with pytest.raises(ValueError, match="does not belong"):
            rolling_predict(ds, sp, preset("gnb"))


class TestEvalModes:
    def test_static_is_deterministic(self, make_grw):
        ds = build_dataset(make_grw(days=120, seed=9))
        sp = split(ds, 0.8)
        a = rolling_predict(ds, sp, preset("dt", seed=5), EvalMode())
        b = rolling_predict(ds, sp, preset("dt", seed=5), EvalMode())
        np.testing.assert_array_equal(a, b)
        assert a.shape == (sp.n_test,)
        assert set(np.unique(a)) <= {0, 1}

    def test_frozen_rolling_with_no_refits_equals_static(self, make_grw):
        """refit_every >= n_test with a frozen window refits once on [0, n_train)."""
        ds = build_dataset(make_grw(days=120, seed=9))
        sp = split(ds, 0.8)
        static = rolling_predict(ds, sp, preset("gnb", seed=5), EvalMode(kind="static"))
        rolling = rolling_predict(
            ds, sp, preset("gnb", seed=5), EvalMode(kind="rolling", refit_every=sp.n_test, freeze_window=True)
        )
        np.testing.assert_array_equal(static, rolling)

    def test_expanding_window_oracle(self, make_grw):
        """Hand-rolled walk-forward loop must agree with rolling_predict."""
        from opentrend.learners import fit, predict

        ds = build_dataset(make_grw(days=80, seed=3))
        sp = split(ds, 0.8)
        spec = preset("gnb", seed=5)
        got = rolling_predict(ds, sp, spec, EvalMode(kind="rolling"))
        expected = []
        for t in sp.test_indices:
            model = fit(spec, ds.matrix.values[:t], ds.labels[:t], feature_names=ds.matrix.columns)
            expected.append(predict(model, ds.matrix.values[t : t + 1])[0])
        np.testing.assert_array_equal(got, np.array(expected))

    def test_frozen_window_oracle(self, make_grw):
        from opentrend.learners import fit, predict

        ds = build_dataset(make_grw(days=80, seed=3))
        sp = split(ds, 0.8)
        spec = preset("gnb", seed=5)
        got = rolling_predict(ds, sp, spec, EvalMode(kind="rolling", freeze_window=True))
        expected = []
        for t in sp.test_indices:
            start = max(0, t - sp.n_train)
            model = fit(
                spec, ds.matrix.values[start:t], ds.labels[start:t], feature_names=ds.matrix.columns
            )
            expected.append(predict(model, ds.matrix.values[t : t + 1])[0])
        np.testing.assert_array_equal(got, np.array(expected))

    def test_refit_every_reuses_models(self, make_grw):
        from opentrend.learners import fit, predict

        ds = build_dataset(make_grw(days=80, seed=3))
        sp = split(ds, 0.8)
        spec = preset("gnb", seed=5)
        k = 3
        got = rolling_predict(ds, sp, spec, EvalMode(kind="rolling", refit_every=k))
        expected = []
        model = None
        for step, t in enumerate(sp.test_indices):
            if step % k == 0:
                model = fit(
                    spec, ds.matrix.values[:t], ds.labels[:t], feature_names=ds.matrix.columns
                )
            expected.append(predict(model, ds.matrix.values[t : t + 1])[0])
        np.testing.assert_array_equal(got, np.array(expected))

    def test_eval_mode_validation(self):
        with pytest.raises(ValueError, match="unknown eval mode"):
            EvalMode(kind="loocv")
        with pytest.raises(ValueError, match="refit_every"):
            EvalMode(kind="rolling", refit_every=0)
        for flag in (True, False):  # a bool is an int to isinstance, but not a refit cadence
            with pytest.raises(ValueError, match=f"^refit_every must be an integer >= 1, got {flag}$"):
                EvalMode(kind="rolling", refit_every=flag)

    def test_fit_failure_names_window(self, make_grw):
        ds = build_dataset(make_grw(days=40, seed=1), feature_set="INT")
        sp = split(ds, 0.8)
        bad = preset("dt")
        bad = bad.__class__(
            family=bad.family,
            hyperparams={"max_depth": -1},
            standardize=bad.standardize,
            seed=0,
        )
        with pytest.raises(RuntimeError, match=r"learner fit failed on window \[0, 16\)"):
            rolling_predict(ds, sp, bad)
