"""Shapley attributions: axioms, closed forms, sampling behavior, and the tree tables."""

from __future__ import annotations

import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from opentrend import explain
from opentrend.explain import (
    MAX_EXACT_FEATURES,
    ShapleyReport,
    background_sample,
    global_importance,
    row_subsample,
    shapley_exact,
    shapley_sampled,
)
from opentrend.features import CANONICAL_COLUMNS
from opentrend.learners import ClassifierSpec, ConstantState, fit, preset
from opentrend.learners.trees import DecisionTreeState, TreeArrays

coalition_values = explain._coalition_values


class LinearScore:
    """score(X) = X @ w + c — the case with a known closed-form attribution."""

    def __init__(self, w, c=0.0):
        self.w = np.asarray(w, dtype=np.float64)
        self.c = c

    def score(self, X):
        return np.asarray(X) @ self.w + self.c


class ConstantScore:
    def score(self, X):
        return np.full(np.asarray(X).shape[0], 0.37)


@pytest.fixture(scope="module")
def fitted_pair():
    """A tree and a logistic model on the same separable blob."""
    rng = np.random.default_rng(8)
    n = 120
    X = np.vstack(
        [
            rng.normal([-1.5, 0.0, 0.5], 1.0, size=(n // 2, 3)),
            rng.normal([1.5, 0.0, 0.5], 1.0, size=(n // 2, 3)),
        ]
    )
    y = np.array([0] * (n // 2) + [1] * (n // 2), dtype=np.int64)
    tree = fit(preset("dt", seed=1), X, y)
    logreg = fit(preset("logreg", seed=1), X, y)
    return X, y, tree, logreg


class TestExact:
    def test_efficiency_on_fitted_models(self, fitted_pair):
        X, _, tree, logreg = fitted_pair
        bg = background_sample(X, max_rows=32, seed=0)
        for model in (tree, logreg):
            for i in (0, 40, 77):
                row = shapley_exact(model, X[i], bg)
                assert row.efficiency_residual < 1e-6

    def test_linear_model_closed_form(self):
        """For a linear scorer, phi_j = w_j * (x_j - mean background_j)."""
        rng = np.random.default_rng(2)
        w = np.array([0.8, -1.3, 0.0, 2.1])
        model = LinearScore(w, c=0.4)
        bg = rng.normal(size=(64, 4))
        x = rng.normal(size=4)
        row = shapley_exact(model, x, bg)
        expected = w * (x - bg.mean(axis=0))
        np.testing.assert_allclose(row.phi, expected, atol=1e-9)
        assert row.efficiency_residual < 1e-9

    def test_dummy_feature_gets_zero(self, fitted_pair):
        """A column the model ignores must receive no credit."""
        rng = np.random.default_rng(3)
        w = np.array([1.0, 0.0, -2.0])  # feature 1 is inert
        model = LinearScore(w)
        bg = rng.normal(size=(50, 3))
        x = rng.normal(size=3)
        row = shapley_exact(model, x, bg)
        assert abs(row.phi[1]) < 1e-9

    def test_symmetry_for_interchangeable_features(self):
        """Two features the model treats identically, with identical values in
        both the row and every background row, earn identical credit."""
        rng = np.random.default_rng(4)

        class SumScore:
            def score(self, X):
                X = np.asarray(X)
                return X[:, 0] + X[:, 1] + 0.5 * X[:, 2]

        base = rng.normal(size=(40, 1))
        bg = np.hstack([base, base, rng.normal(size=(40, 1))])
        x = np.array([1.7, 1.7, -0.3])
        row = shapley_exact(SumScore(), x, bg)
        assert row.phi[0] == pytest.approx(row.phi[1], abs=1e-12)

    def test_constant_model_gets_zero_phi(self):
        rng = np.random.default_rng(5)
        row = shapley_exact(ConstantScore(), rng.normal(size=4), rng.normal(size=(16, 4)))
        np.testing.assert_allclose(row.phi, 0.0, atol=1e-12)
        assert row.base_value == pytest.approx(0.37)

    @pytest.mark.parametrize("d", [1, 3, 7, 12, 16])
    def test_phi_matches_the_mask_loop(self, monkeypatch, d):
        """phi from the halves of the (2,)*d grid of v(S) against a loop over bit masks, bit for bit."""
        rng = np.random.default_rng(d)
        values = rng.normal(size=2**d) * 10.0 ** rng.integers(-3, 4, size=2**d)
        monkeypatch.setattr(explain, "_coalition_values", lambda model, x, background: values)
        row = shapley_exact(ConstantScore(), np.zeros(d), np.zeros((1, d)))
        masks = np.arange(2**d)
        sizes = np.array([bin(m).count("1") for m in masks])
        weight_by_size = np.array([math.factorial(s) * math.factorial(d - s - 1) / math.factorial(d) for s in range(d)])
        for j in range(d):
            without = masks[(masks >> j) & 1 == 0]
            expected = np.sum(weight_by_size[sizes[without]] * (values[without | (1 << j)] - values[without]))
            assert row.phi[j] == expected, j

    def test_feature_limit(self):
        """The limit is the canonical row's width: 16 columns pass, 17 are refused."""
        assert MAX_EXACT_FEATURES == len(CANONICAL_COLUMNS) == 16
        with pytest.raises(ValueError, match="exact enumeration limited to 16 features, got 17"):
            shapley_exact(ConstantScore(), np.zeros(17), np.zeros((4, 17)))

    def test_full_width_still_works(self, fitted_pair):
        """16 features (the full canonical set) stays within the exact limit."""
        rng = np.random.default_rng(6)
        w = rng.normal(size=16)
        model = LinearScore(w)
        bg = rng.normal(size=(8, 16))
        x = rng.normal(size=16)
        row = shapley_exact(model, x, bg)
        np.testing.assert_allclose(row.phi, w * (x - bg.mean(axis=0)), atol=1e-8)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="background"):
            shapley_exact(ConstantScore(), np.zeros(3), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            shapley_exact(ConstantScore(), np.array([np.nan, 0.0]), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="score"):
            shapley_exact(object(), np.zeros(2), np.zeros((4, 2)))

    @pytest.mark.parametrize("attribute", [shapley_exact, shapley_sampled], ids=["exact", "sampled"])
    def test_zero_column_row_refused(self, attribute):
        """A row with no columns has nothing to attribute; both modes refuse it with the same message."""
        with pytest.raises(ValueError, match="^attributed row has no columns$"):
            attribute(ConstantScore(), np.zeros(0), np.zeros((4, 0)))

    @pytest.mark.parametrize("attribute", [shapley_exact, shapley_sampled], ids=["exact", "sampled"])
    @pytest.mark.parametrize("shape", [(2, 2), (0, 4), (1, 1, 4), (4, 1)])
    def test_more_than_one_row_refused(self, attribute, shape):
        """Two rows, no row, or a stack of rows is not one row: flattening it would attribute made-up columns."""
        with pytest.raises(ValueError, match=r"^attributed row must have shape \(d,\) or \(1, d\)"):
            attribute(ConstantScore(), np.arange(float(np.prod(shape))).reshape(shape), np.zeros((4, 4)))

    @pytest.mark.parametrize("attribute", [shapley_exact, shapley_sampled], ids=["exact", "sampled"])
    def test_one_row_matrix_is_the_row(self, attribute):
        """A (1, d) matrix is attributed as the (d,) row it holds."""
        rng = np.random.default_rng(4)
        model, x, bg = LinearScore(rng.normal(size=4)), rng.normal(size=4), rng.normal(size=(8, 4))
        want, got = attribute(model, x, bg), attribute(model, x.reshape(1, 4), bg)
        assert got.phi.tobytes() == want.phi.tobytes()
        assert (got.base_value, got.model_output) == (want.base_value, want.model_output)


class ScoreOnly:
    """A model seen through score alone, so exact Shapley tables span every column."""

    def __init__(self, model):
        self.score = model.score


class CountingScore:
    """A model seen through score alone that counts its score calls and the rows they carry."""

    def __init__(self, model):
        self.model = model
        self.call_rows = []

    @property
    def calls(self):
        return len(self.call_rows)

    @property
    def rows(self):
        return sum(self.call_rows)

    def score(self, X):
        self.call_rows.append(len(X))
        return self.model.score(X)


class CountingTree(CountingScore):
    """A fitted tree-shaped model that counts what it scores and its tree-sum calls, and passes its tree sum on."""

    hooks = 0

    def scaled_tree_sum(self, x, background):
        self.hooks += 1
        return self.model.scaled_tree_sum(x, background)


def tree_tables(model, x, background):
    """A tree-shaped model's exact Shapley masks and its rows' tables row after row, stored or streamed."""
    masks, table = explain._summed_tables(*model.scaled_tree_sum(x, background))
    if callable(table):  # streamed: each row's table is walked into one reused buffer
        table = np.concatenate([table(b).copy() for b in range(masks.shape[0])])
    return masks, table


def counted_walks(monkeypatch):
    """A list that gains the arguments of each call of ``explain._walk`` (one tree over one background row) from now on."""
    walks = []
    walk = explain._walk

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(explain, "_walk", counted)
    return walks


def walks_per_tree(walks):
    """How many times each walked tree was walked, ascending; a walk's first argument is its tree's node lists."""
    return sorted(Counter(id(args[0]) for args in walks).values())


def hybrid_values(model, x, background):
    """Reference v(S): every hybrid row scored, 2,048 coalitions at a time in coalition-major order."""
    d, n_bg = x.size, background.shape[0]
    values = np.empty(2**d)
    masks = np.arange(2**d, dtype=np.uint32)
    for start in range(0, 2**d, 2048):
        chunk = masks[start : start + 2048]
        on = ((chunk[:, None] >> np.arange(d, dtype=np.uint32)) & 1).astype(bool)
        hybrids = np.where(on[:, None, :], x[None, None, :], background[None, :, :])
        scores = np.asarray(model.score(hybrids.reshape(-1, d)), dtype=np.float64)
        values[start : start + len(chunk)] = scores.reshape(len(chunk), n_bg).mean(axis=1)
    return values


def tree_problem(d, max_depth, rounded, seed=0, n=300, standardize=False):
    """A dt fit on continuous or tie-heavy rounded data, with held-out rows to attribute."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if rounded:
        X = np.round(X, 1)
    y = (X[:, 0] - 0.7 * X[:, d - 1] + rng.normal(scale=0.8, size=n) > 0).astype(np.int64)
    hyper = {"max_depth": max_depth, "max_features": min(5, d)}
    spec = ClassifierSpec("DecisionTree", hyper, standardize=standardize, seed=seed)
    return fit(spec, X[:200], y[:200]), X[:200], X[200:]


@pytest.fixture
def assert_same_attribution(monkeypatch):
    """Check that the tables' v(S), phi, base value and output equal the hybrid loop's, bit for bit.

    The check runs at the real ``_TABLE_MIN_ROWS`` and with it patched to 0,
    so that a tree-shaped model fills its tables however small the problem.
    ``tables`` also checks that the model has coalition tables and that,
    where they are filled, each tree is walked once per background row.
    """
    min_rows = explain._TABLE_MIN_ROWS

    def attribute(values_fn, model, x, bg):
        values = []

        def recorded(model, x, background):
            values.append(values_fn(model, x, background))
            return values[-1]

        monkeypatch.setattr(explain, "_coalition_values", recorded)
        return shapley_exact(model, x, bg), values[0]

    def check(model, x, bg, tables=True):
        trees = len(model.scaled_tree_sum(x, bg)[0][2]) if tables else 0
        want, want_values = attribute(hybrid_values, model, x, bg)
        for threshold in (min_rows, 0):
            monkeypatch.setattr(explain, "_TABLE_MIN_ROWS", threshold)
            with pytest.MonkeyPatch.context() as patch:
                walks = counted_walks(patch)
                got, got_values = attribute(coalition_values, model, x, bg)
            walked = tables and 2**x.size * bg.shape[0] >= threshold  # else every hybrid is scored
            assert walks_per_tree(walks) == ([bg.shape[0]] * trees if walked else []), threshold
            assert got_values.tobytes() == want_values.tobytes(), threshold
            assert got.phi.tobytes() == want.phi.tobytes(), threshold
            assert (got.base_value, got.model_output) == (want.base_value, want.model_output), threshold

    return check


#: every preset, cut to a few trees, iterations or epochs
SMALL_PRESETS = {
    "dt": {},
    "gnb": {},
    "knn": {},
    "logreg": {},
    "xgb": {"iterations": 3},
    "mlp": {"max_epochs": 3},
    "catboost": {"iterations": 3},
    "extratrees": {"n_trees": 3},
}

#: presets whose fitted state fills coalition tables from its trees
TREE_SHAPED = ("dt", "xgb", "catboost", "extratrees")


def small_tree_model(kind, X, y, seed=0):
    """A tree-shaped model: a SMALL_PRESETS tree or ensemble, a scaled dt, or a dt on single-class labels."""
    if kind == "constant":
        return fit(preset("dt", seed=seed), X, np.ones_like(y))
    name = "dt" if kind == "dt-scaled" else kind
    base = preset(name, seed=seed)
    hyper = {**base.hyperparams, **SMALL_PRESETS[name]}
    return fit(ClassifierSpec(base.family, hyper, kind == "dt-scaled", base.seed), X, y)


#: every tree-shaped model kind ``small_tree_model`` builds
TREE_KINDS = ("dt", "dt-scaled", "xgb", "catboost", "extratrees", "constant")


def scaled_inputs(model, x, bg):
    """x and the background as the model's state sees them."""
    if model.standardizer is None:
        return x, bg
    return model.standardizer.transform(x), model.standardizer.transform(bg)


def gathered_means(masks, table):
    """Reference v(S): each coalition's entry gathered from every row's table, then ``.mean(axis=1)``, 4,096 at a time."""
    n_bg, d = masks.shape
    bit = np.where(masks, 1 << (np.cumsum(masks, axis=1) - 1), 0)  # 2^(rank of j in F_b) on F_b
    starts = np.concatenate(([0], np.cumsum(1 << masks.sum(axis=1))))[:-1]
    values = np.empty(2**d)
    for start in range(0, 2**d, 4096):
        coalitions = np.arange(start, min(start + 4096, 2**d))
        index = ((coalitions[:, None] >> np.arange(d)) & 1) @ bit.T + starts  # (coalitions, n_bg)
        values[start : start + coalitions.size] = np.take(table, index).mean(axis=1)
    return values


#: background sizes on each side of numpy's pairwise-sum cuts: 8 running sums from 8 terms, one split above 128
PAIRWISE_SIZES = (1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 300)


class TestTableMeans:
    """The broadcast reducer of the coalition tables against gathering every entry and ``.mean(axis=1)``, bit for bit.

    The reducer re-creates the order numpy's pairwise sum adds a row of
    floats in.  If a numpy version adds in another order, these fail.
    """

    @staticmethod
    def tables(rng, masks, kind):
        size = int((1 << masks.sum(axis=1)).sum())
        if kind == "negative-zeros":
            return np.full(size, -0.0)
        table = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)  # magnitudes whose sum depends on the order
        table[rng.random(size) < 0.1] = 0.0
        table[rng.random(size) < 0.1] = -0.0
        return table

    @pytest.mark.parametrize("kind", ["mixed", "negative-zeros"])
    @pytest.mark.parametrize(
        "d, n_bg", [(d, n_bg) for d in (1, 4, 8, 9, 16) for n_bg in PAIRWISE_SIZES if d <= 12 or n_bg <= 128]
    )
    def test_matches_the_gathered_mean(self, d, n_bg, kind):
        rng = np.random.default_rng(1000 * d + n_bg)
        masks = rng.random((n_bg, d)) < 0.5
        masks[0] = True
        if n_bg > 1:
            masks[-1] = False  # a row with no relevant column: a table of one entry
        table = self.tables(rng, masks, kind)
        got, want = explain._table_means(masks, table), gathered_means(masks, table)
        assert got.tobytes() == want.tobytes()
        if kind == "negative-zeros":
            assert not np.signbit(got).any()  # the mean starts from the identity +0.0

    def test_paper_scale_memory(self):
        """A 16-column dt row, 128 background rows: the tables plus under 1.83 MiB, and nothing kept after the call.

        The bound leaves 0.5 MiB above the 1.34 MiB that an index and a
        gather buffer over 256 coalitions at a time took.
        """
        rng = np.random.default_rng(16)
        X = rng.normal(size=(1236, 16))
        y = (X[:, 0] - 0.7 * X[:, 15] + rng.normal(scale=0.8, size=1236) > 0).astype(np.int64)
        model, x, bg = fit(preset("dt", seed=16), X[:989], y[:989]), X[1000], background_sample(X[:989], seed=1)
        table_bytes = tree_tables(model, x, bg)[1].nbytes
        coalition_values(model, x, bg)  # numpy's small caches fill on the first call
        tracemalloc.start()
        try:
            coalition_values(model, x, bg)
            gc.collect()  # and with it Python's free lists of small objects
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - table_bytes < 1.83 * 2**20
        assert left < 16 * 2**10  # numpy's small caches at most


def masks_with_entries(n_bg, d, entries):
    """(n_bg x d) masks whose rows' tables hold ``entries`` entries in all; each row's set columns come first."""
    widths, extra = [], entries - n_bg  # every row's table holds at least one entry
    for _ in range(n_bg):
        width = max(w for w in range(d + 1) if (1 << w) - 1 <= extra)
        widths.append(width)
        extra -= (1 << width) - 1
    assert extra == 0
    return np.arange(d) < np.array(widths)[:, None]


class TestStreamedTables:
    """Exact mode's two sources of a row's term: stored tables, or the row walked into one buffer when the sum needs it."""

    @pytest.fixture(scope="class")
    def data(self):
        """400 training rows of 16 columns, their labels and a held-out row."""
        rng = np.random.default_rng(37)
        X = rng.normal(size=(460, 16))
        y = (X[:, 0] - 0.7 * X[:, 15] + rng.normal(scale=0.8, size=460) > 0).astype(np.int64)
        return X[:400], y[:400], X[450]

    @staticmethod
    def route_values(monkeypatch, model, x, bg, stream):
        """v(S) from the tables however small the problem, with the route forced, and the walks it made."""
        monkeypatch.setattr(explain, "_TABLE_MIN_ROWS", 0)
        monkeypatch.setattr(explain, "_streams", lambda masks: stream)
        with pytest.MonkeyPatch.context() as patch:
            walks = counted_walks(patch)
            values = coalition_values(model, x, bg)
        return values, walks

    @pytest.mark.parametrize("n_bg", [1, 8, 128, 129, 300])
    @pytest.mark.parametrize("d", [9, 16])
    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_routes_give_the_same_values(self, monkeypatch, data, kind, d, n_bg):
        """Both routes equal the gathered mean of the stored tables, bit for bit, and walk each tree once per row.

        At 16 columns stored tables are summed in 4 passes and streamed ones
        in one; above 128 rows the pairwise sum splits and needs one more
        accumulator.
        """
        X, y, x = data
        X, x = X[:, :d], x[:d]
        model = small_tree_model(kind, X, y, seed=d)
        bg = background_sample(X, max_rows=n_bg, seed=n_bg)
        want = gathered_means(*tree_tables(model, x, bg))
        trees = len(model.scaled_tree_sum(x, bg)[0][2])
        for stream in (False, True):
            got, walks = self.route_values(monkeypatch, model, x, bg, stream)
            assert got.tobytes() == want.tobytes(), stream
            assert walks_per_tree(walks) == [n_bg] * trees, stream

    @pytest.mark.parametrize("n_bg, d", [(8, 4), (128, 16), (129, 12), (300, 16)])
    def test_the_size_rule_boundary(self, monkeypatch, n_bg, d):
        """Tables of one entry more than one pass's extra accumulators stream; at or under that size they are stored."""
        limit = (explain._accumulators_needed(n_bg) - 1) << d
        model = fit(preset("dt"), np.ones((40, d)), np.arange(40) % 2)  # one leaf: any column may be marked relevant
        x, bg = np.zeros(d), np.random.default_rng(d).normal(size=(n_bg, d))
        for entries, streams in ((limit - 1, False), (limit, False), (limit + 1, True)):
            masks = masks_with_entries(n_bg, d, entries)
            monkeypatch.setattr(explain, "_relevant_columns", lambda tree, x, background: masks)
            assert explain._streams(masks) is streams
            got, table = explain._summed_tables(*model.scaled_tree_sum(x, bg))
            assert got.tobytes() == masks.tobytes() and callable(table) is streams, entries
            assert not np.any(explain._table_means(got, table) - model.score(x.reshape(1, -1))[0]), entries

    def test_dense_row_memory(self):
        """A 16-column dt row far from its 128 background rows: 8.2 MiB of tables, summed under 4 MiB, nothing kept after.

        Like the densest benchmark market's row, whose stored tables peaked
        at 10 MiB.
        """
        rng = np.random.default_rng(1)
        X = rng.normal(size=(1236, 16))
        y = (X[:, 0] - 0.7 * X[:, 15] + rng.normal(scale=2.0, size=1236) > 0).astype(np.int64)
        model, x, bg = fit(preset("dt", seed=1), X[:989], y[:989]), np.full(16, 4.0), background_sample(X[:989], seed=1)
        masks, table = tree_tables(model, x, bg)
        assert table.nbytes > 8 * 2**20 and explain._streams(masks)
        want = gathered_means(masks, table)
        del table
        coalition_values(model, x, bg)  # numpy's small caches fill on the first call
        tracemalloc.start()
        try:
            got = coalition_values(model, x, bg)
            del got
            gc.collect()  # and with it Python's free lists of small objects
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert left < 16 * 2**10  # numpy's small caches at most
        assert coalition_values(model, x, bg).tobytes() == want.tobytes()


class TestOneTablePath:
    """Every model's coalition values, from the tree tables or from scored hybrids, equal the hybrid loop's."""

    @pytest.mark.parametrize("name", [*SMALL_PRESETS, "score-only"])
    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_matches_the_hybrid_loop(self, assert_same_attribution, name, d):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(140, d))
        y = (X[:, 0] + rng.normal(scale=0.8, size=140) > 0).astype(np.int64)
        base = preset("dt" if name == "score-only" else name, seed=d)
        hyper = {**base.hyperparams, **SMALL_PRESETS.get(name, {})}
        model = fit(ClassifierSpec(base.family, hyper, base.standardize, base.seed), X[:100], y[:100])
        if name == "score-only":
            model = ScoreOnly(model)
        bg = background_sample(X[:100], max_rows=32, seed=d)
        for x in X[100:103]:
            assert_same_attribution(model, x, bg, tables=name in TREE_SHAPED)

    @pytest.mark.parametrize("d, n_bg", [(12, 24), (16, 4), (16, 129)])
    def test_full_buffers_match_the_hybrid_loop(self, assert_same_attribution, d, n_bg):
        """Coalitions per call: 2,730 then 1,366; 4 x 16,384; 129 x 508 then 4 (129 rows do not divide 2^16)."""
        rng = np.random.default_rng(d)
        X = rng.normal(size=(120, d))
        model = fit(preset("logreg"), X, (X[:, 0] > 0).astype(np.int64))
        assert_same_attribution(model, X[0], X[1 : 1 + n_bg], tables=False)

    def test_one_coalition_past_a_call_of_rows_is_scored_alone(self, assert_same_attribution):
        """2^16 + 1 background rows: each of the 4 coalitions takes a call of its own, past ``_TABLE_CHUNK`` rows."""
        rng = np.random.default_rng(2)
        model, x, bg = LinearScore(rng.normal(size=2)), rng.normal(size=2), rng.normal(size=(2**16 + 1, 2))
        assert_same_attribution(model, x, bg, tables=False)
        counting = CountingScore(model)
        shapley_exact(counting, x, bg)
        assert counting.call_rows == [2**16 + 1] * 4 + [1]

    def test_score_only_model_scores_coalitions_in_order(self):
        """2^16 coalitions, 128 background rows: 512 coalitions per call, each with every background row in order."""
        rng = np.random.default_rng(16)
        x, bg = rng.normal(size=16), rng.normal(size=(128, 16))
        first = []

        class Recording(CountingScore):
            def score(self, X):
                if not first:
                    first.append(np.array(X))
                return super().score(X)

        counting = Recording(LinearScore(rng.normal(size=16)))
        row = shapley_exact(counting, x, bg)
        assert counting.calls == 128 + 1  # 2^16 / 512 calls, plus the row itself
        assert counting.rows == 2**16 * 128 + 1
        taken = ((np.arange(512)[:, None] >> np.arange(16)) & 1).astype(bool)  # bit j of S is column j
        assert first[0].tobytes() == np.where(taken[:, None, :], x, bg).reshape(-1, 16).tobytes()
        assert row.efficiency_residual < 1e-9

    def test_paper_scale_score_only_row_memory(self):
        """One 16-column row over 128 background rows peaks under 32 MiB: no 2^16 x 128 table of scores is kept."""
        rng = np.random.default_rng(16)
        model, x, bg = LinearScore(rng.normal(size=16)), rng.normal(size=16), rng.normal(size=(128, 16))
        shapley_exact(model, x, bg)  # numpy's small caches fill on the first call
        tracemalloc.start()
        try:
            shapley_exact(model, x, bg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestTreeTables:
    """Exact Shapley of single trees from per-background-row tables against the hybrid loop."""

    @pytest.mark.parametrize("rounded", [False, True], ids=["continuous", "rounded"])
    @pytest.mark.parametrize("max_depth", [1, 10])
    @pytest.mark.parametrize("d", [3, 10, 16])
    @pytest.mark.parametrize("n_bg", [1, 128])
    def test_matches_the_hybrid_loop(self, assert_same_attribution, d, max_depth, rounded, n_bg):
        model, train, test = tree_problem(d, max_depth, rounded, seed=d + max_depth)
        bg = background_sample(train, max_rows=n_bg, seed=1)
        assert_same_attribution(model, test[0], bg)

    @pytest.mark.parametrize("kind", ["dt", "score-only"])
    @pytest.mark.parametrize("n_bg", [7, 9, 129])
    def test_pairwise_cuts_match_the_hybrid_loop(self, assert_same_attribution, kind, n_bg):
        """Background sizes where numpy's pairwise sum changes course: a dt's tables and a score-only model's full ones."""
        model, train, test = tree_problem(12, 10, rounded=False, seed=n_bg)
        bg = background_sample(train, max_rows=n_bg, seed=1)
        if kind == "score-only":
            model = ScoreOnly(model)
        assert_same_attribution(model, test[0], bg, tables=kind == "dt")

    def test_row_equal_to_a_background_row(self, assert_same_attribution):
        model, train, _ = tree_problem(10, 10, rounded=True)
        bg = background_sample(train, max_rows=32, seed=2)
        x = bg[5]
        assert not tree_tables(model, x, bg)[0][5].any()  # identical rows never part ways
        assert_same_attribution(model, x, bg)

    def test_row_on_the_thresholds(self, assert_same_attribution):
        model, train, _ = tree_problem(10, 10, rounded=False)
        tree = model.state.tree
        x = train[7].copy()
        for node in np.nonzero(tree.feature >= 0)[0][::-1]:  # the root's threshold wins its column
            x[tree.feature[node]] = tree.threshold[node]
        assert_same_attribution(model, x, background_sample(train, max_rows=64, seed=3))

    def test_single_leaf_tree(self, assert_same_attribution):
        X = np.ones((40, 3))
        y = np.arange(40) % 2  # two classes, but no column separates them
        model = fit(preset("dt"), X, y)
        assert isinstance(model.state, DecisionTreeState) and model.state.tree.feature.size == 1
        bg = np.random.default_rng(4).normal(size=(16, 3))
        assert not tree_tables(model, np.zeros(3), bg)[0].any()
        assert_same_attribution(model, np.zeros(3), bg)

    def test_hybrid_keeps_its_leaf_off_the_masks(self):
        """For random S, a hybrid lands in the leaf of the hybrid over S & F_b."""
        rng = np.random.default_rng(5)
        for rounded in (False, True):
            model, train, test = tree_problem(16, 10, rounded, seed=6)
            tree = model.state.tree
            leaf_of = TreeArrays(tree.feature, tree.threshold, tree.left, tree.right, np.arange(tree.feature.size, dtype=np.float64))
            bg = background_sample(train, max_rows=64, seed=7)
            for x in test[:5]:
                masks, _ = tree_tables(model, x, bg)
                assert masks.shape == bg.shape and masks.any()
                for _ in range(20):
                    S = rng.random(16) < 0.5
                    full = np.where(S, x, bg)
                    kept = np.where(S & masks, x, bg)
                    np.testing.assert_array_equal(leaf_of.apply(full), leaf_of.apply(kept))

    def test_scores_only_the_tables(self):
        model, train, test = tree_problem(16, 10, rounded=False)
        bg = background_sample(train, max_rows=128, seed=8)
        counting = CountingTree(model)
        row = shapley_exact(counting, test[0], bg)
        masks, table = tree_tables(model, test[0], bg)
        assert table.size == int((1 << masks.sum(axis=1)).sum()) < 2**16 * 128
        assert counting.call_rows == [1]  # the tables are walked, not scored: only the attributed row is
        assert row.efficiency_residual < 1e-9

    def test_small_problems_score_every_hybrid(self):
        model, train, test = tree_problem(3, 10, rounded=False)
        bg = background_sample(train, max_rows=128, seed=8)
        assert 2**3 * 128 < explain._TABLE_MIN_ROWS
        counting = CountingTree(model)
        shapley_exact(counting, test[0], bg)
        assert counting.rows == 2**3 * 128 + 1

    @pytest.mark.parametrize("rounded", [False, True], ids=["continuous", "rounded"])
    def test_scaled_tree_matches_the_hybrid_loop(self, assert_same_attribution, rounded):
        model, train, test = tree_problem(10, 10, rounded, seed=12, standardize=True)
        assert model.standardizer is not None
        assert_same_attribution(model, test[0], background_sample(train, max_rows=64, seed=13))
        assert_same_attribution(model, train[3], background_sample(train, max_rows=64, seed=13))

    @pytest.mark.parametrize("standardize", [False, True], ids=["unscaled", "scaled"])
    def test_constant_model_matches_the_hybrid_loop(self, assert_same_attribution, standardize):
        X = np.random.default_rng(14).normal(loc=2.0, scale=3.0, size=(80, 10))
        model = fit(ClassifierSpec("DecisionTree", standardize=standardize), X, np.ones(80, dtype=np.int64))
        assert isinstance(model.state, ConstantState)
        assert_same_attribution(model, X[0], X[:32])

    def test_constant_model_scores_one_row_per_background_row(self):
        X = np.random.default_rng(15).normal(size=(200, 16))
        model = fit(preset("logreg"), X, np.zeros(200, dtype=np.int64))  # scaled, single class
        counting = CountingTree(model)
        row = shapley_exact(counting, X[0], X[:128])
        masks, table = tree_tables(model, X[0], X[:128])
        assert not masks.any() and table.tolist() == [0.0] * 128  # one empty table entry per background row
        assert counting.call_rows == [1]  # filled, not scored: only the attributed row is
        assert not row.phi.any() and row.base_value == row.model_output == 0.0

    def test_tree_shaped_models_give_tables(self):
        """Trees, ensembles and constant models fill tables; each row's spans its trees' union of relevant columns."""
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        x, bg = X[0], X[:8]
        for kind in ("dt", "dt-scaled"):
            model = small_tree_model(kind, X, y)
            masks, table = tree_tables(model, x, bg)
            assert masks.shape == (8, 3) and table.shape == ((1 << masks.sum(axis=1)).sum(),), kind
            np.testing.assert_array_equal(masks, explain._relevant_columns(model.state.tree, *scaled_inputs(model, x, bg)))
        for kind in ("xgb", "catboost", "extratrees"):
            model = small_tree_model(kind, X, y)
            masks, table = tree_tables(model, x, bg)
            assert masks.shape == (8, 3) and table.shape == ((1 << masks.sum(axis=1)).sum(),), kind
            union = np.zeros_like(masks)
            for tree in model.state.trees:
                union |= explain._relevant_columns(tree, x, bg)
            np.testing.assert_array_equal(masks, union)
        for spec in (preset("dt"), preset("logreg")):
            model = fit(spec, X, np.ones_like(y))
            masks, table = tree_tables(model, x, bg)
            assert masks.shape == (8, 3) and not masks.any() and table.tolist() == [1.0] * 8, spec.family
        for name in ("logreg", "gnb", "knn"):
            assert fit(preset(name), X, y).scaled_tree_sum(x, bg) is None, name

    def test_tree_shaped_models_score_only_the_row(self):
        """At or above the threshold a tree-shaped model makes one score call: the attributed row."""
        rng = np.random.default_rng(15)
        X = rng.normal(size=(200, 16))
        y = (X[:, 0] - 0.5 * X[:, 3] + rng.normal(scale=0.8, size=200) > 0).astype(np.int64)
        bg = X[:128]
        assert 2**16 * 128 >= explain._TABLE_MIN_ROWS
        for kind in TREE_KINDS:
            counting = CountingTree(small_tree_model(kind, X, y))
            row = shapley_exact(counting, X[150], bg)
            assert counting.call_rows == [1], kind
            assert row.efficiency_residual < 1e-9, kind

    @pytest.mark.parametrize("kind", ["dt-scaled", "xgb", "catboost", "extratrees", "constant"])
    def test_small_problems_score_every_hybrid_of_any_tree_shape(self, kind):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] > 0).astype(np.int64)
        assert 2**4 * 128 < explain._TABLE_MIN_ROWS
        counting = CountingTree(small_tree_model(kind, X, y))
        shapley_exact(counting, X[150], X[:128])
        assert counting.rows == 2**4 * 128 + 1


class TestTreeWalk:
    """Tables walked from every tree-shaped model against the hybrid loop, bit for bit."""

    @staticmethod
    def problem(d, rounded, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(240, d))
        if rounded:
            X = np.round(X, 1)  # tie-heavy: many rows share each value
        y = (X[:, 0] - 0.7 * X[:, d - 1] + rng.normal(scale=0.8, size=240) > 0).astype(np.int64)
        return X[:200], y[:200], X[200:]

    @pytest.mark.parametrize("rounded", [False, True], ids=["continuous", "rounded"])
    @pytest.mark.parametrize("d, n_bg", [(9, 4), (9, 32), (16, 4), (16, 12)])
    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_matches_the_hybrid_loop(self, assert_same_attribution, kind, d, n_bg, rounded):
        X, y, test = self.problem(d, rounded, seed=d + n_bg)
        model = small_tree_model(kind, X, y, seed=d)
        assert_same_attribution(model, test[0], background_sample(X, max_rows=n_bg, seed=1))

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_row_on_the_thresholds(self, assert_same_attribution, kind):
        """The row sits on thresholds, a background row equals it and another shares half its columns."""
        X, y, _ = self.problem(9, False, seed=17)
        model = small_tree_model(kind, X, y, seed=3)
        state = model.state
        trees = getattr(state, "trees", [state.tree] if hasattr(state, "tree") else [])
        x, bg = scaled_inputs(model, X[7].copy(), background_sample(X, max_rows=32, seed=4))
        for tree in trees[::-1]:  # the first tree's root threshold wins its column
            for node in np.nonzero(tree.feature >= 0)[0][::-1]:
                x[tree.feature[node]] = tree.threshold[node]
        bg[0] = x
        bg[1, ::2] = x[::2]
        if model.standardizer is not None:  # raw values that scale onto the thresholds, up to rounding
            x, bg = (v * model.standardizer.std + model.standardizer.mean for v in (x, bg))
        assert_same_attribution(model, x, bg)

    def test_paper_scale_xgb_row_memory(self):
        """An xgb preset on 989 rows of 16 columns, 128 background rows: union tables, well under 128 all-column ones (64 MiB)."""
        rng = np.random.default_rng(16)
        X = rng.normal(size=(1236, 16))
        y = (X[:, 0] - 0.7 * X[:, 15] + rng.normal(scale=0.8, size=1236) > 0).astype(np.int64)
        model = fit(preset("xgb", seed=16), X[:989], y[:989])
        bg = background_sample(X[:989], max_rows=128, seed=1)
        tracemalloc.start()
        try:
            row = shapley_exact(model, X[1000], bg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert row.efficiency_residual < 1e-9


#: sums of no tree or of one tree: (preset, hyperparameters, trees)
EDGE_SUMS = {
    "xgb-0-rounds": ("xgb", {"iterations": 0}, 0),
    "xgb-1-round": ("xgb", {"iterations": 1}, 1),
    "extratrees-1-tree": ("extratrees", {"n_trees": 1}, 1),
}


class TestEdgeTreeSums:
    """Ensembles of no tree or one tree in both modes: sampled mode walks each tree, and scores no hybrid."""

    @pytest.fixture(scope="class")
    def problem(self):
        X, y, test = TestTreeWalk.problem(16, False, seed=21)
        return X, y, background_sample(X, max_rows=32, seed=1), test[:2]

    @staticmethod
    def model(name, X, y):
        kind, hyper, n_trees = EDGE_SUMS[name]
        base = preset(kind, seed=6)
        model = fit(ClassifierSpec(base.family, {**base.hyperparams, **hyper}, base.standardize, base.seed), X, y)
        assert len(model.state.trees) == n_trees
        return model

    @pytest.mark.parametrize("name", EDGE_SUMS)
    def test_exact_matches_the_hybrid_loop(self, assert_same_attribution, problem, name):
        X, y, bg, rows = problem
        model = self.model(name, X, y)
        for x in rows:
            assert_same_attribution(model, x, bg[:4])

    @pytest.mark.parametrize("name", EDGE_SUMS)
    def test_sampled_matches_the_stepwise_loop_and_the_scored_route(self, monkeypatch, problem, name):
        X, y, bg, rows = problem
        model = self.model(name, X, y)
        n_trees = EDGE_SUMS[name][2]
        for i, x in enumerate(rows):
            counting = CountingTree(model)
            walks = counted_walks(monkeypatch)
            got = shapley_sampled(counting, x, bg, n_permutations=7, seed=i)
            for want in (stepwise_sampled(model, x, bg, 7, i), shapley_sampled(ScoreOnly(model), x, bg, n_permutations=7, seed=i)):
                assert got.phi.tobytes() == want.phi.tobytes()
                assert (got.base_value, got.model_output) == (want.base_value, want.model_output)
            assert walks_per_tree(walks) == [bg.shape[0]] * n_trees  # one tree walked once per row, or no tree
            assert counting.calls == 2  # the background and the row


class TestSampled:
    def test_efficiency_holds_exactly(self, fitted_pair):
        """Telescoping makes every permutation efficient, hence the average too."""
        X, _, tree, _ = fitted_pair
        bg = background_sample(X, max_rows=32, seed=0)
        row = shapley_sampled(tree, X[5], bg, n_permutations=11, seed=3)
        assert row.efficiency_residual < 1e-9

    def test_deterministic_given_seed(self, fitted_pair):
        X, _, tree, _ = fitted_pair
        bg = background_sample(X, max_rows=16, seed=0)
        a = shapley_sampled(tree, X[5], bg, n_permutations=20, seed=9)
        b = shapley_sampled(tree, X[5], bg, n_permutations=20, seed=9)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_agrees_with_exact_on_linear_model(self):
        rng = np.random.default_rng(7)
        w = np.array([1.0, -0.5, 0.25])
        model = LinearScore(w)
        bg = rng.normal(size=(32, 3))
        x = rng.normal(size=3)
        exact = shapley_exact(model, x, bg)
        sampled = shapley_sampled(model, x, bg, n_permutations=300, seed=0)
        np.testing.assert_allclose(sampled.phi, exact.phi, atol=1e-8)

    def test_unbiased_within_standard_error(self, fitted_pair):
        """Reseeded estimates scatter around the exact value ~ like a mean."""
        X, _, tree, _ = fitted_pair
        bg = background_sample(X, max_rows=16, seed=0)
        exact = shapley_exact(tree, X[10], bg)
        estimates = np.array(
            [shapley_sampled(tree, X[10], bg, n_permutations=30, seed=s).phi for s in range(30)]
        )
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        for j in range(X.shape[1]):
            bound = 4.0 * se[j] + 1e-12
            assert abs(mean[j] - exact.phi[j]) < bound, f"feature {j}"

    def test_permutation_count_validated(self):
        with pytest.raises(ValueError, match="n_permutations"):
            shapley_sampled(ConstantScore(), np.zeros(2), np.zeros((4, 2)), n_permutations=0)


def stepwise_sampled(model, x, background, n_permutations, seed):
    """Reference sampled Shapley: one score call per hybrid, setting the ordering's columns one at a time."""
    row = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    base_value = float(np.asarray(model.score(background), dtype=np.float64).mean())
    phi = np.zeros(row.size)
    for _ in range(n_permutations):
        order = rng.permutation(row.size)
        hybrid = background.copy()
        prev = base_value
        for j in order:
            hybrid[:, j] = row[j]
            cur = float(np.asarray(model.score(hybrid), dtype=np.float64).mean())
            phi[j] += cur - prev
            prev = cur
    phi /= n_permutations
    out = float(np.asarray(model.score(row.reshape(1, -1)), dtype=np.float64)[0])
    return explain.AttributionRow(phi=phi, base_value=base_value, model_output=out)


class TestBatchedSampled:
    """Sampled Shapley scores each ordering's hybrids together and keeps the stepwise loop's bits."""

    @staticmethod
    def assert_same_row(got, want):
        assert got.phi.tobytes() == want.phi.tobytes()
        assert (got.base_value, got.model_output) == (want.base_value, want.model_output)

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(260, 16))
        y = (X[:, 0] - 0.5 * X[:, 3] + rng.normal(scale=0.8, size=260) > 0).astype(np.int64)
        return X[:200], y[:200], background_sample(X[:200], max_rows=128, seed=1), X[200:203]

    @pytest.mark.parametrize("name", [*SMALL_PRESETS, "constant"])
    def test_matches_the_stepwise_loop(self, problem, name):
        X, y, bg, rows = problem
        base = preset("dt" if name == "constant" else name, seed=4)
        hyper = {**base.hyperparams, **SMALL_PRESETS.get(name, {})}
        labels = np.zeros_like(y) if name == "constant" else y
        model = fit(ClassifierSpec(base.family, hyper, base.standardize, base.seed), X, labels)
        assert isinstance(model.state, ConstantState) == (name == "constant")
        for i, x in enumerate(rows):
            got = shapley_sampled(model, x, bg, n_permutations=5, seed=i)
            self.assert_same_row(got, stepwise_sampled(model, x, bg, n_permutations=5, seed=i))

    @pytest.mark.parametrize("chunk", [128, 3 * 128 + 5, 15 * 128])
    def test_split_calls_match_the_stepwise_loop(self, problem, monkeypatch, chunk):
        """A background too big for one buffer of d hybrids splits an ordering into calls of whole hybrids."""
        monkeypatch.setattr(explain, "_TABLE_CHUNK", chunk)
        X, y, bg, rows = problem
        counting = CountingScore(fit(preset("logreg", seed=4), X, y))
        got = shapley_sampled(counting, rows[0], bg, n_permutations=3, seed=7)
        self.assert_same_row(got, stepwise_sampled(counting.model, rows[0], bg, n_permutations=3, seed=7))
        assert counting.calls == 3 * math.ceil(16 / (chunk // 128)) + 2
        assert max(counting.call_rows) <= chunk

    def test_one_score_call_per_permutation(self, problem):
        """A tree seen through score alone has no leaf tables, so its hybrids are scored."""
        X, y, bg, rows = problem
        counting = CountingScore(fit(preset("dt", seed=4), X, y))
        row = shapley_sampled(counting, rows[0], bg, n_permutations=11, seed=2)
        assert counting.calls == 11 + 2  # the background, one stack of 16 hybrids per ordering, the row
        assert counting.rows == 128 + 11 * 16 * 128 + 1
        assert row.efficiency_residual < 1e-9


class TestSampledTreeWalk:
    """Sampled Shapley of every tree sum read from per-tree leaf tables, bit for bit the stepwise loop's."""

    @staticmethod
    def check(model, x, bg, n_permutations=7, seed=0):
        """The walked row equals the stepwise loop's; the hook is used, each tree is walked once, and only the background and the row are scored."""
        counting = CountingTree(model)
        with pytest.MonkeyPatch.context() as patch:
            walks = counted_walks(patch)
            got = shapley_sampled(counting, x, bg, n_permutations=n_permutations, seed=seed)
        want = stepwise_sampled(model, x, bg, n_permutations, seed)
        assert got.phi.tobytes() == want.phi.tobytes()
        assert (got.base_value, got.model_output) == (want.base_value, want.model_output)
        assert counting.hooks == 1 and counting.call_rows == [bg.shape[0], 1]
        assert walks_per_tree(walks) == [bg.shape[0]] * len(model.scaled_tree_sum(x, bg)[0][2])  # each tree once per row

    @staticmethod
    def tree_sum_model(kind, X, y):
        """A ``TREE_KINDS`` model or an ``EDGE_SUMS`` ensemble."""
        return TestEdgeTreeSums.model(kind, X, y) if kind in EDGE_SUMS else small_tree_model(kind, X, y, seed=5)

    @pytest.fixture(scope="class")
    def problem(self):
        X, y, test = TestTreeWalk.problem(16, False, seed=21)
        return X, y, background_sample(X, max_rows=32, seed=1), test[0]

    @pytest.mark.parametrize("rounded", [False, True], ids=["continuous", "rounded"])
    @pytest.mark.parametrize("standardize", [False, True], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("d", [1, 4, 16])
    @pytest.mark.parametrize("n_bg", [1, 32])
    def test_matches_the_stepwise_loop(self, d, standardize, rounded, n_bg):
        model, train, test = tree_problem(d, 10, rounded, seed=d + n_bg, standardize=standardize)
        bg = background_sample(train, max_rows=n_bg, seed=1)
        for i, x in enumerate(test[:2]):
            self.check(model, x, bg, seed=i)

    def test_row_equal_to_a_background_row(self):
        model, train, _ = tree_problem(10, 10, rounded=True)
        bg = background_sample(train, max_rows=32, seed=2)
        self.check(model, bg[5], bg)

    @pytest.mark.parametrize("standardize", [False, True], ids=["unscaled", "scaled"])
    def test_row_on_the_thresholds(self, standardize):
        model, train, _ = tree_problem(10, 10, rounded=False, standardize=standardize)
        tree = model.state.tree
        x, bg = scaled_inputs(model, train[7].copy(), background_sample(train, max_rows=64, seed=3))
        for node in np.nonzero(tree.feature >= 0)[0][::-1]:  # the root's threshold wins its column
            x[tree.feature[node]] = tree.threshold[node]
        bg[0] = x
        bg[1, ::2] = x[::2]
        if model.standardizer is not None:  # raw values that scale onto the thresholds, up to rounding
            x, bg = (v * model.standardizer.std + model.standardizer.mean for v in (x, bg))
        self.check(model, x, bg)

    def test_single_leaf_tree(self):
        model = fit(preset("dt"), np.ones((40, 3)), np.arange(40) % 2)  # two classes, but no column separates them
        assert isinstance(model.state, DecisionTreeState) and model.state.tree.feature.size == 1
        self.check(model, np.zeros(3), np.random.default_rng(4).normal(size=(16, 3)))

    @pytest.mark.parametrize("standardize", [False, True], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("label", [0, 1])
    def test_constant_model(self, standardize, label):
        X = np.random.default_rng(14).normal(loc=2.0, scale=3.0, size=(80, 10))
        model = fit(ClassifierSpec("DecisionTree", standardize=standardize), X, np.full(80, label))
        assert isinstance(model.state, ConstantState)
        self.check(model, X[0], X[:32])

    @pytest.mark.parametrize("n_permutations", [1, 10, 2000])
    def test_any_number_of_orderings_walks_once(self, monkeypatch, n_permutations):
        """The leaf ids of every background row are walked once, before the first ordering, however many follow."""
        model, train, test = tree_problem(16, 10, rounded=True, seed=3)
        bg = background_sample(train, max_rows=32, seed=4)
        walks = counted_walks(monkeypatch)
        self.check(model, test[0], bg, n_permutations=n_permutations, seed=5)
        assert walks_per_tree(walks) == [32]

    @pytest.mark.parametrize("n_permutations", [1, 10, 2000])
    @pytest.mark.parametrize("kind", [*TREE_KINDS, *EDGE_SUMS])
    def test_every_tree_sum_walks_each_tree_once(self, problem, kind, n_permutations):
        """Trees, ensembles, constants and sums of no tree or one: one walk per tree, however many orderings follow."""
        X, y, bg, x = problem
        self.check(self.tree_sum_model(kind, X, y), x, bg, n_permutations=n_permutations, seed=n_permutations)

    @pytest.mark.parametrize("kind", ["xgb", "extratrees"])
    def test_past_the_budget_nothing_is_walked(self, problem, monkeypatch, kind):
        """Tables of more than ``_TABLE_CHUNK`` ids per background row in all are not walked: the hybrids are scored.

        Two equal background rows give each tree two tables of one size, so
        the trees' ids are even, and at half their count per row they exactly
        fill the budget.
        """
        X, y, bg, x = problem
        bg = bg[[3, 3]]
        model = small_tree_model(kind, X, y, seed=5)
        tree_sum, sx, sbg = model.scaled_tree_sum(x, bg)
        assert len(tree_sum[2]) == 3
        ids = sum(int(explain._table_offsets(explain._relevant_columns(tree, sx, sbg))[-1]) for tree in tree_sum[2])
        monkeypatch.setattr(explain, "_TABLE_CHUNK", ids // 2)  # the trees' ids just fit
        self.check(model, x, bg)
        monkeypatch.setattr(explain, "_TABLE_CHUNK", ids // 2 - 1)  # one id per row short
        counting = CountingTree(model)
        walks = counted_walks(monkeypatch)
        got = shapley_sampled(counting, x, bg, n_permutations=7, seed=0)
        for want in (stepwise_sampled(model, x, bg, 7, 0), shapley_sampled(ScoreOnly(model), x, bg, n_permutations=7, seed=0)):
            assert got.phi.tobytes() == want.phi.tobytes()
            assert (got.base_value, got.model_output) == (want.base_value, want.model_output)
        assert walks == [] and counting.calls == 7 + 2  # the background, each scored ordering, the row

    def test_two_byte_leaf_ids(self, monkeypatch):
        """A tree of more than 256 nodes stores its leaf ids as uint16."""
        rng = np.random.default_rng(18)
        X = rng.normal(size=(1001, 16))
        model = fit(ClassifierSpec("DecisionTree", {"max_depth": 30, "max_features": 16}), X[:1000], rng.integers(0, 2, 1000))
        assert model.state.tree.feature.size > 256
        bg = background_sample(X[:1000], max_rows=32, seed=1)
        walks = counted_walks(monkeypatch)
        self.check(model, X[1000], bg)
        assert {view.dtype for _, _, _, view, _ in walks} == {np.dtype(np.uint16)}  # the tables the walks wrote ids into

    @pytest.fixture(scope="class")
    def paper_data(self):
        """989 training rows of 16 columns and their labels, a 128-row background and a held-out row."""
        rng = np.random.default_rng(16)
        X = rng.normal(size=(1236, 16))
        y = (X[:, 0] - 0.7 * X[:, 15] + rng.normal(scale=0.8, size=1236) > 0).astype(np.int64)
        return X[:989], y[:989], background_sample(X[:989], max_rows=128, seed=1), X[1000]

    @pytest.fixture(scope="class")
    def paper_row(self, paper_data):
        """A dt preset fitted on the paper-scale rows, with the background and the held-out row."""
        X, y, bg, x = paper_data
        return fit(preset("dt", seed=16), X, y), x, bg

    def test_paper_scale_row_scores_two_calls(self, paper_row, monkeypatch):
        """16 columns, 128 background rows, 200 orderings: the background and the row are scored, no hybrid."""
        model, x, bg = paper_row
        counting = CountingTree(model)
        walks = counted_walks(monkeypatch)
        row = shapley_sampled(counting, x, bg)
        assert counting.call_rows == [128, 1] and walks_per_tree(walks) == [128]
        assert row.efficiency_residual < 1e-9

    @pytest.fixture(scope="class")
    def paper_xgb_row(self, paper_data):
        """The xgb preset (100 trees) fitted on the paper-scale rows, with the background and the held-out row."""
        X, y, bg, x = paper_data
        return fit(preset("xgb", seed=16), X, y), x, bg

    def test_paper_scale_xgb_row_scores_two_calls(self, paper_xgb_row, monkeypatch):
        """16 columns, 128 background rows, 200 orderings, 100 trees: one walk per tree, no hybrid scored."""
        model, x, bg = paper_xgb_row
        counting = CountingTree(model)
        walks = counted_walks(monkeypatch)
        row = shapley_sampled(counting, x, bg)
        assert counting.call_rows == [128, 1] and walks_per_tree(walks) == [128] * 100
        assert row.efficiency_residual < 1e-9

    def test_sizing_stops_at_the_tree_past_the_budget(self, paper_xgb_row, monkeypatch):
        """A budget the first ten of 100 trees fill: no tree after the one that overruns it is sized, none is walked.

        The hybrids are then scored, with the bytes of the scored route.
        """
        model, x, bg = paper_xgb_row
        tree_sum, sx, sbg = model.scaled_tree_sum(x, bg)
        ids = np.cumsum([int(explain._table_offsets(explain._relevant_columns(tree, sx, sbg))[-1]) for tree in tree_sum[2]])
        chunk = int(ids[9]) // 128
        stop = int(np.argmax(ids > chunk * 128))  # the first tree whose running total passes the budget
        assert 0 < stop < 20
        monkeypatch.setattr(explain, "_TABLE_CHUNK", chunk)
        sized = []
        relevant = explain._relevant_columns
        monkeypatch.setattr(explain, "_relevant_columns", lambda *args: sized.append(1) or relevant(*args))
        walks = counted_walks(monkeypatch)
        got = shapley_sampled(model, x, bg, n_permutations=3, seed=0)
        assert len(sized) == stop + 1 and walks == []
        want = shapley_sampled(ScoreOnly(model), x, bg, n_permutations=3, seed=0)
        assert got.phi.tobytes() == want.phi.tobytes()
        assert (got.base_value, got.model_output) == (want.base_value, want.model_output)

    @staticmethod
    def sampled_peak(model, x, bg, n_permutations):
        """The tracemalloc peak of one sampled row, in bytes."""
        tracemalloc.start()
        try:
            shapley_sampled(model, x, bg, n_permutations=n_permutations)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n_permutations", [200, 2000])
    def test_paper_scale_memory_stays_bounded(self, paper_row, n_permutations):
        """One table of leaf ids over the background, plus one ordering's index and the walk's temporaries.

        Holding all 2,000 orderings' leaf ids at once would peak at about 4.7 MiB.
        """
        assert self.sampled_peak(*paper_row, n_permutations) < 2 * 2**20

    def test_paper_scale_memory_does_not_grow_with_orderings(self, paper_row):
        """2,000 orderings peak no higher than 200: each ordering's index is dropped before the next."""
        assert self.sampled_peak(*paper_row, 2000) <= self.sampled_peak(*paper_row, 200) + 64 * 2**10

    def test_paper_scale_xgb_memory_stays_bounded(self, paper_xgb_row):
        """100 tables of leaf ids and their compact index weights, plus one tree's gather at a time.

        Scoring the hybrids peaked at 4.9 MiB, and int64 index weights would
        add 1.6 MiB.  2,000 orderings peak no higher than 200: each
        ordering's gathers are dropped before the next.
        """
        peak = self.sampled_peak(*paper_xgb_row, 200)
        assert peak < 2 * 2**20
        assert self.sampled_peak(*paper_xgb_row, 2000) <= peak + 64 * 2**10

    def test_wide_row_is_scored_not_walked(self):
        """40 columns, past the exact-mode cap: the hybrids are scored, not walked.

        A deep tree on random labels gives some background row 25 relevant
        columns, and a walk's table of 2^25 leaf ids would take 64 MiB.
        """
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3000, 40))
        y = rng.integers(0, 2, size=3000)
        model = fit(ClassifierSpec("DecisionTree", {"max_depth": 40, "max_features": 40}, seed=3), X, y)
        bg = background_sample(X, max_rows=32, seed=1)
        tracemalloc.start()
        try:
            got = shapley_sampled(model, X[0], bg, n_permutations=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = stepwise_sampled(model, X[0], bg, n_permutations=2, seed=0)
        assert got.phi.tobytes() == want.phi.tobytes()
        assert (got.base_value, got.model_output) == (want.base_value, want.model_output)
        assert peak < 8 * 2**20


class TestGlobalImportance:
    def test_mean_absolute_phi(self, fitted_pair):
        X, _, tree, _ = fitted_pair
        bg = background_sample(X, max_rows=16, seed=0)
        rows = X[:5]
        report = global_importance(tree, rows, bg, feature_names=("a", "b", "c"))
        per_row = np.vstack([shapley_exact(tree, r, bg).phi for r in rows])
        np.testing.assert_allclose(report.global_importance, np.abs(per_row).mean(axis=0))
        assert report.mode == "exact"
        assert report.background_size == 16
        assert len(report.rows) == 5

    def test_separating_feature_ranks_first(self, fitted_pair):
        X, _, tree, logreg = fitted_pair
        bg = background_sample(X, max_rows=32, seed=0)
        for model in (tree, logreg):
            report = global_importance(model, X[:20], bg, feature_names=("sep", "noise", "flat"))
            assert report.ranking()[0] == "sep"

    def test_ranking_breaks_ties_by_index(self):
        report = ShapleyReport(
            feature_names=("a", "b", "c"),
            rows=(),
            global_importance=np.array([0.5, 0.7, 0.5]),
            mode="exact",
            background_size=1,
        )
        assert report.ranking() == ("b", "a", "c")

    def test_sampled_mode_reseeds_per_row(self, fitted_pair):
        X, _, tree, _ = fitted_pair
        bg = background_sample(X, max_rows=8, seed=0)
        report = global_importance(
            tree, X[:3], bg, feature_names=("a", "b", "c"), mode="sampled", n_permutations=10, seed=5
        )
        again = global_importance(
            tree, X[:3], bg, feature_names=("a", "b", "c"), mode="sampled", n_permutations=10, seed=5
        )
        np.testing.assert_array_equal(report.global_importance, again.global_importance)

    def test_mode_validated(self, fitted_pair):
        X, _, tree, _ = fitted_pair
        with pytest.raises(ValueError, match="unknown attribution mode"):
            global_importance(tree, X[:2], X[:4], feature_names=("a", "b", "c"), mode="kernel")

    def test_name_arity_validated(self, fitted_pair):
        X, _, tree, _ = fitted_pair
        with pytest.raises(ValueError, match="names for"):
            global_importance(tree, X[:2], X[:4], feature_names=("a", "b"))


class TestSampling:
    def test_background_passthrough_when_small(self):
        X = np.arange(12.0).reshape(4, 3)
        bg = background_sample(X, max_rows=10, seed=0)
        np.testing.assert_array_equal(bg, X)

    def test_background_subsamples_without_replacement(self):
        X = np.arange(300.0).reshape(100, 3)
        bg = background_sample(X, max_rows=10, seed=1)
        assert bg.shape == (10, 3)
        assert len(np.unique(bg[:, 0])) == 10
        np.testing.assert_array_equal(bg, background_sample(X, max_rows=10, seed=1))

    def test_row_subsample_indices(self):
        idx = row_subsample(np.zeros((250, 2)), max_rows=100, seed=2)
        assert idx.shape == (100,)
        assert len(np.unique(idx)) == 100
        assert np.all(np.diff(idx) > 0)  # sorted: attribution keeps row order
        small = row_subsample(np.zeros((30, 2)), max_rows=100, seed=2)
        np.testing.assert_array_equal(small, np.arange(30))

    @pytest.mark.parametrize("max_rows", [0, -1])
    def test_background_size_below_one_refused(self, max_rows):
        with pytest.raises(ValueError, match=f"background size must be >= 1, got {max_rows}"):
            background_sample(np.zeros((10, 2)), max_rows=max_rows)

    def test_row_count_below_one_refused(self):
        with pytest.raises(ValueError, match="attributed row count must be >= 1, got 0"):
            row_subsample(np.zeros((10, 2)), max_rows=0)

    @pytest.mark.parametrize("size", [True, 2.5, 3.0, "4"])
    def test_non_integer_sizes_refused(self, size):
        """True would count as 1 and 2.5 would pass >= 1; each function names its size."""
        with pytest.raises(ValueError, match=f"background size must be an integer, got {size!r}"):
            background_sample(np.zeros((10, 2)), max_rows=size)
        with pytest.raises(ValueError, match=f"attributed row count must be an integer, got {size!r}"):
            row_subsample(np.zeros((10, 2)), max_rows=size)
        with pytest.raises(ValueError, match=f"n_permutations must be an integer, got {size!r}"):
            shapley_sampled(ConstantScore(), np.zeros(2), np.zeros((4, 2)), n_permutations=size)

    @pytest.mark.parametrize("size", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_sizes_accepted(self, size):
        assert background_sample(np.arange(20.0).reshape(10, 2), max_rows=size).shape == (3, 2)
        assert row_subsample(np.zeros((10, 2)), max_rows=size).shape == (3,)
        row = shapley_sampled(LinearScore([1.0, 2.0]), np.ones(2), np.zeros((4, 2)), n_permutations=size)
        np.testing.assert_allclose(row.phi, [1.0, 2.0])
