"""All classifier families through the shared fit/predict contract."""

from __future__ import annotations

import numpy as np
import pytest

from opentrend.features import FeatureSetMask, assemble, select
from opentrend.learners import (
    PRESET_NAMES,
    REPORT_LABELS,
    ClassifierSpec,
    ConstantState,
    Standardizer,
    family_names,
    fit,
    model_from_json,
    model_to_json,
    predict,
    preset,
)
from opentrend.learners.linear import loss_and_gradient
from opentrend.learners.mlp import loss_and_gradients


def blob_data(seed=42, n=200, gap=2.0):
    """Two separable Gaussian blobs along the first feature."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal([-gap, 0.0], 1.0, size=(half, 2)),
            rng.normal([gap, 0.0], 1.0, size=(half, 2)),
        ]
    )
    y = np.array([0] * half + [1] * half, dtype=np.int64)
    shuffle = rng.permutation(n)
    return X[shuffle], y[shuffle]


@pytest.fixture(scope="module")
def blob():
    return blob_data()


@pytest.fixture(scope="module")
def fitted_models(blob):
    """Every preset fitted once on the shared blob."""
    X, y = blob
    return {name: fit(preset(name, seed=1), X, y) for name in PRESET_NAMES}


class TestContract:
    def test_every_family_registered(self):
        assert family_names() == (
            "DecisionTree",
            "ExtraTrees",
            "GaussianNB",
            "GradientBoostedTrees",
            "KNearest",
            "LogisticRegression",
            "MLP",
        )

    def test_all_presets_separate_blobs(self, blob, fitted_models):
        X, y = blob
        for name, model in fitted_models.items():
            acc = (predict(model, X) == y).mean()
            assert acc >= 0.95, f"{name} reached only {acc:.3f} train accuracy"

    def test_scores_are_probabilities(self, blob, fitted_models):
        X, _ = blob
        for name, model in fitted_models.items():
            s = model.score(X)
            assert s.shape == (len(X),)
            assert np.all((s >= 0.0) & (s <= 1.0)), name

    def test_predict_thresholds_at_half_with_ties_to_one(self):
        # two training points at distance-tied positions: k=2 mean is exactly 0.5
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = fit(ClassifierSpec(family="KNearest", hyperparams={"k": 2}), X, y)
        query = np.array([[0.5]])
        assert model.score(query)[0] == pytest.approx(0.5)
        assert predict(model, query)[0] == 1

    def test_single_class_labels_yield_constant_model(self, blob):
        X, _ = blob
        for label in (0, 1):
            model = fit(preset("dt"), X, np.full(len(X), label))
            assert isinstance(model.state, ConstantState)
            assert np.all(predict(model, X) == label)
            assert np.all(model.score(X) == float(label))

    def test_determinism_same_seed(self, blob):
        X, y = blob
        for name in ("dt", "extratrees", "mlp", "xgb"):
            a = fit(preset(name, seed=7), X, y)
            b = fit(preset(name, seed=7), X, y)
            np.testing.assert_array_equal(a.score(X), b.score(X))

    def test_feature_matrix_input_carries_column_names(self, grw_series):
        full = assemble(grw_series)
        matrix = select(full, FeatureSetMask.from_name("INT+NOW"))
        y = np.zeros(matrix.n_rows, dtype=np.int64)
        y[::2] = 1
        model = fit(preset("gnb"), matrix, y)
        assert model.feature_names == matrix.columns
        # a matrix with different columns is rejected at predict time
        other = select(full, FeatureSetMask.from_name("INT"))
        with pytest.raises(ValueError, match="column mismatch"):
            predict(model, other)

    def test_prediction_input_validation(self, blob, fitted_models):
        X, _ = blob
        model = fitted_models["gnb"]
        with pytest.raises(ValueError, match="2-D"):
            model.score(X[0])
        with pytest.raises(ValueError, match="expected 2 columns"):
            model.score(X[:, :1])
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model.score(bad)

    def test_fit_input_validation(self, blob):
        X, y = blob
        with pytest.raises(ValueError, match="unknown classifier family"):
            fit(ClassifierSpec(family="svm"), X, y)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fit(preset("gnb"), X, y + 1)
        with pytest.raises(ValueError, match="expected 200 labels"):
            fit(preset("gnb"), X, y[:-1])

    def test_hyperparameter_validation(self, blob):
        X, y = blob
        with pytest.raises(ValueError, match="unknown hyperparameter 'depth'"):
            fit(ClassifierSpec(family="DecisionTree", hyperparams={"depth": 3}), X, y)
        with pytest.raises(ValueError, match="invalid value.*'max_depth'"):
            fit(ClassifierSpec(family="DecisionTree", hyperparams={"max_depth": 0}), X, y)


class TestStandardizer:
    def test_z_scores(self):
        X = np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]])
        st = Standardizer.from_data(X)
        out = st.transform(X)
        np.testing.assert_allclose(out[:, 0].mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(out[:, 0].std(), 1.0)

    def test_constant_column_passes_through_centered(self):
        X = np.array([[1.0, 10.0], [3.0, 10.0]])
        st = Standardizer.from_data(X)
        assert st.std[1] == 1.0  # no division by zero
        np.testing.assert_array_equal(st.transform(X)[:, 1], [0.0, 0.0])

    def test_presets_that_standardize(self):
        scaled = {name for name in PRESET_NAMES if preset(name).standardize}
        assert scaled == {"knn", "logreg", "mlp"}

    def test_scaling_makes_knn_scale_invariant(self, blob):
        X, y = blob
        stretched = X * np.array([1000.0, 0.001])
        a = fit(preset("knn", seed=1), X, y)
        b = fit(preset("knn", seed=1), stretched, y)
        np.testing.assert_array_equal(predict(a, X), predict(b, stretched))


class TestPresets:
    def test_names_and_labels(self):
        assert PRESET_NAMES == ("dt", "gnb", "knn", "logreg", "xgb", "mlp", "catboost", "extratrees")
        assert REPORT_LABELS["xgb"] == "xgb*"
        assert REPORT_LABELS["catboost"] == "catboost*"
        assert REPORT_LABELS["dt"] == "dt"

    def test_boosting_presets_differ_only_in_hyperparams(self):
        xgb, cat = preset("xgb"), preset("catboost")
        assert xgb.family == cat.family == "GradientBoostedTrees"
        assert xgb.hyperparams == {"iterations": 100, "max_depth": 6, "learning_rate": 0.3}
        assert cat.hyperparams == {"iterations": 1000, "max_depth": 6, "learning_rate": 0.1}

    def test_mlp_architecture(self):
        assert preset("mlp").hyperparams["hidden_layers"] == (128, 64, 32, 32, 16, 16, 8, 8)

    def test_dt_and_knn_settings(self):
        assert preset("dt").hyperparams == {"max_depth": 10, "max_features": 5}
        assert preset("knn").hyperparams == {"k": 5}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("resnet")


class TestSerialization:
    def test_round_trip_every_preset(self, blob, fitted_models):
        X, _ = blob
        probe = X[:17]
        for name, model in fitted_models.items():
            again = model_from_json(model_to_json(model))
            np.testing.assert_array_equal(model.score(probe), again.score(probe), err_msg=name)
            assert again.feature_names == model.feature_names
            assert again.hyperparams == model.hyperparams

    def test_round_trip_constant_model(self, blob):
        X, _ = blob
        model = fit(preset("gnb"), X, np.ones(len(X), dtype=np.int64))
        again = model_from_json(model_to_json(model))
        assert np.all(again.score(X[:3]) == 1.0)

    def test_wrong_format_version_rejected(self, fitted_models):
        import json

        blob_dict = json.loads(model_to_json(fitted_models["dt"]))
        blob_dict["format_version"] = 999
        with pytest.raises(ValueError, match="unsupported model format version"):
            model_from_json(json.dumps(blob_dict))

    def test_unknown_state_kind_rejected(self, fitted_models):
        import json

        blob_dict = json.loads(model_to_json(fitted_models["dt"]))
        blob_dict["state"]["kind"] = "oracle"
        with pytest.raises(ValueError, match="unknown model state kind"):
            model_from_json(json.dumps(blob_dict))


class TestDecisionTree:
    def test_duplicate_columns_tie_to_lowest_index(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=60)
        X = np.column_stack([x, x])  # identical columns: every gain ties
        y = (x > 0).astype(np.int64)
        model = fit(preset("dt", seed=0), X, y)
        assert model.state.tree.feature[0] == 0

    def test_monotone_transform_invariance_on_training_points(self, blob):
        """Cube-transforming a feature preserves order, so the partition of the
        training rows — and hence their predictions — is unchanged."""
        X, y = blob
        warped = X.copy()
        warped[:, 0] = warped[:, 0] ** 3
        a = fit(preset("dt", seed=3), X, y)
        b = fit(preset("dt", seed=3), warped, y)
        np.testing.assert_array_equal(predict(a, X), predict(b, warped))

    def test_max_depth_one_is_a_stump(self, blob):
        X, y = blob
        model = fit(ClassifierSpec(family="DecisionTree", hyperparams={"max_depth": 1}), X, y)
        tree = model.state.tree
        assert len(tree.feature) == 3  # root plus two leaves
        assert tree.feature[0] == 0  # the separating feature
        assert tree.feature[1] == -1 and tree.feature[2] == -1

    def test_max_features_clamped_to_dimension(self, blob):
        X, y = blob  # d=2 < default max_features=5; must not crash
        model = fit(preset("dt", seed=0), X, y)
        assert (predict(model, X) == y).mean() >= 0.95

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        model = fit(preset("dt"), X, np.array([1, 1, 1]))
        assert isinstance(model.state, ConstantState)


class TestExtraTrees:
    def test_small_ensemble_separates(self, blob):
        X, y = blob
        spec = ClassifierSpec(family="ExtraTrees", hyperparams={"n_trees": 25}, seed=2)
        model = fit(spec, X, y)
        assert (predict(model, X) == y).mean() >= 0.95

    def test_score_is_tree_mean(self, blob):
        X, y = blob
        spec = ClassifierSpec(family="ExtraTrees", hyperparams={"n_trees": 7}, seed=2)
        model = fit(spec, X, y)
        votes = np.array([t.apply(X) for t in model.state.trees])
        np.testing.assert_allclose(model.score(X), votes.mean(axis=0))

    def test_more_trees_changes_nothing_deterministically(self, blob):
        """Per-tree seeding means tree t is the same no matter the ensemble size."""
        X, y = blob
        small = fit(ClassifierSpec(family="ExtraTrees", hyperparams={"n_trees": 3}, seed=9), X, y)
        large = fit(ClassifierSpec(family="ExtraTrees", hyperparams={"n_trees": 6}, seed=9), X, y)
        for t in range(3):
            np.testing.assert_array_equal(
                small.state.trees[t].apply(X), large.state.trees[t].apply(X)
            )


class TestGradientBoosting:
    def test_zero_iterations_is_majority_class(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = np.array([1] * 20 + [0] * 10)
        spec = ClassifierSpec(family="GradientBoostedTrees", hyperparams={"iterations": 0})
        model = fit(spec, X, y)
        assert np.all(predict(model, X) == 1)
        np.testing.assert_allclose(model.score(X), 20.0 / 30.0)

    def test_loss_decreases_with_iterations(self, blob):
        X, y = blob
        losses = []
        for iters in (1, 5, 25):
            spec = ClassifierSpec(
                family="GradientBoostedTrees",
                hyperparams={"iterations": iters, "max_depth": 3, "learning_rate": 0.3},
            )
            s = fit(spec, X, y).score(X)
            eps = 1e-12
            losses.append(-(y * np.log(s + eps) + (1 - y) * np.log(1 - s + eps)).mean())
        assert losses[0] > losses[1] > losses[2]


class TestGaussianNB:
    def test_posterior_on_known_generative_model(self):
        """Equal-prior unit-variance classes at -m and +m: the posterior is
        sigmoid(2*m*x) up to the tiny variance-smoothing term."""
        rng = np.random.default_rng(5)
        m = 1.0
        n = 20000
        X0 = rng.normal(-m, 1.0, size=(n, 1))
        X1 = rng.normal(+m, 1.0, size=(n, 1))
        X = np.vstack([X0, X1])
        y = np.array([0] * n + [1] * n)
        model = fit(preset("gnb"), X, y)
        for x in (-1.5, 0.0, 0.7, 2.0):
            got = model.score(np.array([[x]]))[0]
            mu0, mu1 = X0.mean(), X1.mean()
            v0, v1 = X0.var(), X1.var()
            log_ratio = (
                -0.5 * np.log(v1) - (x - mu1) ** 2 / (2 * v1)
                + 0.5 * np.log(v0) + (x - mu0) ** 2 / (2 * v0)
            )
            expected = 1.0 / (1.0 + np.exp(-log_ratio))
            assert got == pytest.approx(expected, abs=1e-4)

    def test_midpoint_is_half(self):
        X = np.array([[-1.0], [-2.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(preset("gnb"), X, y)
        assert model.score(np.array([[0.0]]))[0] == pytest.approx(0.5)

    def test_unbalanced_priors_shift_the_boundary(self):
        # mirror-image classes (same spread, means at -1 and +1) so the
        # likelihoods at 0 cancel exactly and only the 2:1 prior remains
        X = np.array([[-1.2], [-1.0], [-0.8], [0.8], [1.0], [1.2], [0.8], [1.0], [1.2]])
        y = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1])
        model = fit(preset("gnb"), X, y)
        assert model.score(np.array([[0.0]]))[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


class TestKNearest:
    def test_k_one_memorizes(self, blob):
        X, y = blob
        model = fit(ClassifierSpec(family="KNearest", hyperparams={"k": 1}, standardize=True), X, y)
        np.testing.assert_array_equal(predict(model, X), y)

    def test_distance_ties_break_by_train_index(self):
        # two train points equidistant from the query; the stable sort keeps
        # the earlier train index first
        X = np.array([[-1.0], [1.0]])
        for y in ([0, 1], [1, 0]):
            model = fit(ClassifierSpec(family="KNearest", hyperparams={"k": 1}), X, np.array(y))
            assert model.score(np.array([[0.0]]))[0] == float(y[0])

    def test_k_clamped_to_train_size(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        model = fit(ClassifierSpec(family="KNearest", hyperparams={"k": 50}), X, y)
        np.testing.assert_allclose(model.score(np.array([[5.0]])), 2.0 / 3.0)

    def test_chunked_distances_match_direct(self, blob):
        X, y = blob
        model = fit(preset("knn", seed=1), X, y)
        queries = X[:5] + 0.1
        scores = model.score(queries)
        st = model.standardizer
        Xs, Qs = st.transform(X), st.transform(queries)
        for i, q in enumerate(Qs):
            d2 = ((Xs - q) ** 2).sum(axis=1)
            order = np.argsort(d2, kind="stable")[:5]
            assert scores[i] == pytest.approx(y[order].mean())


class TestLogisticRegression:
    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = (rng.random(40) > 0.5).astype(np.float64)
        w = rng.normal(size=3) * 0.5
        b = 0.3
        l2 = 0.7
        loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, l2)
        eps = 1e-6
        for j in range(3):
            w_hi, w_lo = w.copy(), w.copy()
            w_hi[j] += eps
            w_lo[j] -= eps
            numeric = (loss_and_gradient(w_hi, b, X, y, l2)[0] - loss_and_gradient(w_lo, b, X, y, l2)[0]) / (2 * eps)
            assert grad_w[j] == pytest.approx(numeric, rel=1e-5)
        numeric_b = (loss_and_gradient(w, b + eps, X, y, l2)[0] - loss_and_gradient(w, b - eps, X, y, l2)[0]) / (2 * eps)
        assert grad_b == pytest.approx(numeric_b, rel=1e-5)

    def test_converges_to_stationary_point(self, blob):
        X, y = blob
        model = fit(preset("logreg", seed=0), X, y)
        state = model.state
        Xs = model.standardizer.transform(X)
        _, grad_w, grad_b = loss_and_gradient(
            state.weights, state.bias, Xs, y.astype(np.float64), model.hyperparams["l2"]
        )
        norm = np.sqrt((grad_w**2).sum() + grad_b**2)
        assert norm <= model.hyperparams["tol"] * 10  # tol is the stop test's bound

    def test_l2_shrinks_weights(self, blob):
        X, y = blob
        light = fit(ClassifierSpec("LogisticRegression", {"l2": 0.01}, standardize=True), X, y)
        heavy = fit(ClassifierSpec("LogisticRegression", {"l2": 100.0}, standardize=True), X, y)
        assert np.abs(heavy.state.weights).sum() < np.abs(light.state.weights).sum()

    def test_score_is_sigmoid_of_linear_form(self, blob):
        X, y = blob
        model = fit(preset("logreg", seed=0), X, y)
        Xs = model.standardizer.transform(X[:9])
        z = Xs @ model.state.weights + model.state.bias
        np.testing.assert_allclose(model.score(X[:9]), 1.0 / (1.0 + np.exp(-z)), rtol=1e-12)


class TestMlp:
    def test_gradient_check_small_net(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 3))
        y = (rng.random(12) > 0.5).astype(np.float64)
        weights = [rng.normal(size=(3, 4)) * 0.6, rng.normal(size=(4, 1)) * 0.6]
        biases = [rng.normal(size=4) * 0.1, rng.normal(size=1) * 0.1]
        loss, grads_w, grads_b = loss_and_gradients(weights, biases, X, y)
        eps = 1e-6

        def numeric(perturb):
            hi = loss_and_gradients(*perturb(+eps), X, y)[0]
            lo = loss_and_gradients(*perturb(-eps), X, y)[0]
            return (hi - lo) / (2 * eps)

        for layer in range(2):
            w_flat = weights[layer].ravel()
            for pos in range(0, w_flat.size, max(1, w_flat.size // 5)):
                def perturb(delta, layer=layer, pos=pos):
                    ws = [w.copy() for w in weights]
                    ws[layer].ravel()[pos] += delta
                    return ws, biases
                assert grads_w[layer].ravel()[pos] == pytest.approx(numeric(perturb), rel=1e-4, abs=1e-10)
            for pos in range(biases[layer].size):
                def perturb(delta, layer=layer, pos=pos):
                    bs = [b.copy() for b in biases]
                    bs[layer][pos] += delta
                    return weights, bs
                assert grads_b[layer].ravel()[pos] == pytest.approx(numeric(perturb), rel=1e-4, abs=1e-10)

    def test_small_net_learns_blob(self, blob):
        X, y = blob
        spec = ClassifierSpec(
            family="MLP",
            hyperparams={"hidden_layers": (8,), "max_epochs": 300},
            standardize=True,
            seed=4,
        )
        model = fit(spec, X, y)
        assert (predict(model, X) == y).mean() >= 0.95

    def test_layer_shapes_follow_architecture(self, blob):
        X, y = blob
        spec = ClassifierSpec(
            family="MLP", hyperparams={"hidden_layers": (6, 3), "max_epochs": 2}, standardize=True
        )
        model = fit(spec, X, y)
        shapes = [w.shape for w in model.state.weights]
        assert shapes == [(2, 6), (6, 3), (3, 1)]
