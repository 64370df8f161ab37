"""All classifier families through the shared fit/predict contract."""

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

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
from opentrend.learners.base import _STATE_TYPES, _WALK_ENTRIES, TreeSum, positive_number, sigmoid
from opentrend.learners.boosting import BoostedTreesState, _leaf_sums
from opentrend.learners.forest import ExtraTreesState
from opentrend.learners.linear import loss_and_gradient
from opentrend.learners.mlp import loss_and_gradients
from opentrend.learners.neighbors import KNearestState
from opentrend.learners.trees import (
    GINI,
    SSE,
    DecisionTreeState,
    TreeArrays,
    grow_tree,
    make_exhaustive_finder,
    make_random_entropy_finder,
    random_candidates,
    sort_columns,
    tie_span,
)


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


@pytest.fixture(scope="module")
def state_models(blob, fitted_models):
    """One fitted model per registered state kind, the constant model included."""
    X, _ = blob
    models = {model.state.kind: model for model in fitted_models.values()}
    constant = fit(preset("logreg"), X, np.ones(len(X), dtype=np.int64))
    models[constant.state.kind] = constant
    return models


def state_arrays(model):
    """(path, array) for every ndarray in a model's state and standardizer."""

    def walk(value, path):
        if isinstance(value, np.ndarray):
            yield path, value
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from walk(item, f"{path}[{i}]")
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                yield from walk(getattr(value, f.name), f"{path}.{f.name}")

    yield from walk(model.state, "state")
    yield from walk(model.standardizer, "standardizer")


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

    @pytest.mark.parametrize(
        "seed,load_message",
        [
            pytest.param(True, "^model spec: expected int, got True$", id="True"),
            pytest.param(-1, "seed must be an integer >= 0", id="-1"),
            pytest.param(1.0, "^model spec: expected int, got 1.0$", id="1.0"),
        ],
    )
    def test_seed_must_be_a_non_negative_int(self, blob, fitted_models, seed, load_message):
        import json

        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            ClassifierSpec("DecisionTree", seed=seed)
        blob_dict = json.loads(model_to_json(fitted_models["dt"]))
        blob_dict["spec"]["seed"] = seed
        with pytest.raises(ValueError, match=load_message):
            model_from_json(json.dumps(blob_dict))

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

    @pytest.mark.parametrize(
        "family,hyperparams",
        [
            ("LogisticRegression", {"l2": True}),
            ("LogisticRegression", {"tol": True}),
            ("GradientBoostedTrees", {"learning_rate": True}),
            ("MLP", {"learning_rate": True}),
            ("MLP", {"tol": True}),
            ("MLP", {"momentum": False}),
        ],
    )
    def test_booleans_are_not_numbers(self, blob, family, hyperparams):
        X, y = blob
        (key,) = hyperparams
        with pytest.raises(ValueError, match=f"invalid value for {family} hyperparameter '{key}': "):
            fit(ClassifierSpec(family=family, hyperparams=hyperparams), X, y)

    def test_positive_number(self):
        assert positive_number(1) and positive_number(1e-6) and positive_number(math.inf)
        for bad in (True, False, 0, 0.0, -1, math.nan, "1", None):
            assert not positive_number(bad), bad


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

    @pytest.mark.parametrize("name", ["DT", " dt", "dt ", "Gnb"])
    def test_names_are_exact(self, name):
        with pytest.raises(ValueError, match="unknown preset"):
            preset(name)


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

    def test_every_state_kind_round_trips_to_the_same_bytes(self, state_models):
        assert set(state_models) == set(_STATE_TYPES)
        for kind, model in state_models.items():
            text = model_to_json(model)
            again = model_from_json(text)
            assert model_to_json(again) == text, kind
            assert type(again.state) is type(model.state), kind
            before, after = dict(state_arrays(model)), dict(state_arrays(again))
            assert before.keys() == after.keys(), kind
            for path, array in before.items():
                assert after[path].dtype == array.dtype, (kind, path)
                np.testing.assert_array_equal(after[path], array, err_msg=f"{kind} {path}")
        tree = model_from_json(model_to_json(state_models["decision_tree"])).state.tree
        assert (tree.feature.dtype, tree.left.dtype, tree.right.dtype) == (np.int64,) * 3
        assert tree.threshold.dtype == np.float64 and tree.value.dtype == np.float64

    def test_missing_state_key_names_kind_and_key(self, state_models):
        import json

        for kind, model in state_models.items():
            blob_dict = json.loads(model_to_json(model))
            key = next(k for k in sorted(blob_dict["state"]) if k != "kind")
            del blob_dict["state"][key]
            with pytest.raises(ValueError, match=f"{kind}.*missing key '{key}'"):
                model_from_json(json.dumps(blob_dict))

    def test_unknown_state_key_names_kind_and_key(self, state_models):
        import json

        for kind, model in state_models.items():
            blob_dict = json.loads(model_to_json(model))
            blob_dict["state"]["leaf_count"] = 3
            with pytest.raises(ValueError, match=f"{kind}.*unknown key 'leaf_count'"):
                model_from_json(json.dumps(blob_dict))

    def test_nested_tree_key_checked(self, state_models):
        import json

        blob_dict = json.loads(model_to_json(state_models["boosted_trees"]))
        del blob_dict["state"]["trees"][0]["left"]
        with pytest.raises(ValueError, match="boosted_trees.*missing key 'left'"):
            model_from_json(json.dumps(blob_dict))

    @pytest.mark.parametrize(
        "path,change,message",
        [
            (("spec",), "delete", "model: missing key 'spec'"),
            (("hyperparams",), "delete", "model: missing key 'hyperparams'"),
            (("feature_names",), "delete", "model: missing key 'feature_names'"),
            (("standardizer",), "delete", "model: missing key 'standardizer'"),
            (("state",), "delete", "model: missing key 'state'"),
            (("weights",), "add", "model: unknown key 'weights'"),
            (("spec", "family"), "delete", "model spec: missing key 'family'"),
            (("spec", "seed"), "delete", "model spec: missing key 'seed'"),
            (("spec", "depth"), "add", "model spec: unknown key 'depth'"),
        ],
    )
    def test_envelope_key_checked(self, fitted_models, path, change, message):
        import json

        blob_dict = json.loads(model_to_json(fitted_models["dt"]))
        *parents, key = path
        target = blob_dict
        for parent in parents:
            target = target[parent]
        if change == "delete":
            del target[key]
        else:
            target[key] = 1
        with pytest.raises(ValueError, match=f"^{message}$"):
            model_from_json(json.dumps(blob_dict))

    @pytest.mark.parametrize(
        "name,kind,key,value,message",
        [
            ("knn", "k_nearest", "k", -3, "k must be an integer >= 1, got -3"),
            ("knn", "k_nearest", "k", 0, "k must be an integer >= 1, got 0"),
            ("extratrees", "extra_trees", "trees", [], "a forest needs at least one tree"),
            ("knn", "k_nearest", "k", 2.7, "expected int, got 2.7"),
            ("knn", "k_nearest", "k", True, "expected int, got True"),
            ("knn", "k_nearest", "k", "3", "expected int, got '3'"),
            ("logreg", "logistic_regression", "bias", "nan", "expected float, got 'nan'"),
            ("logreg", "logistic_regression", "bias", math.nan, "expected a finite float, got nan"),
            ("logreg", "logistic_regression", "bias", -math.inf, "expected a finite float, got -inf"),
            ("xgb", "boosted_trees", "learning_rate", math.inf, "expected a finite float, got inf"),
            pytest.param(
                "logreg", "logistic_regression", "bias", 10**400, f"expected a finite float, got {10**400}", id="bias-401-digits"
            ),
            pytest.param(
                "logreg", "logistic_regression", "bias", -(10**400), f"expected a finite float, got {-(10**400)}", id="negative-bias-401-digits"
            ),
        ],
    )
    def test_states_that_cannot_score_refused(self, fitted_models, name, kind, key, value, message):
        import json

        blob_dict = json.loads(model_to_json(fitted_models[name]))
        blob_dict["state"][key] = value
        with pytest.raises(ValueError, match=f"^model state '{kind}': {message}$"):
            model_from_json(json.dumps(blob_dict))

    def test_a_bool_hyperparameter_is_not_its_int(self, fitted_models):
        import json

        blob_dict = json.loads(model_to_json(fitted_models["knn"]))
        blob_dict["spec"]["hyperparams"]["k"] = blob_dict["hyperparams"]["k"] = blob_dict["state"]["k"] = 1
        model_from_json(json.dumps(blob_dict))  # a consistent k = 1 model loads
        blob_dict["hyperparams"]["k"] = True
        with pytest.raises(ValueError, match=re.escape("model: hyperparams {'k': True} are not the spec's resolved {'k': 1}")):
            model_from_json(json.dumps(blob_dict))

    def test_a_model_with_no_feature_columns_refused(self, fitted_models):
        """Load refuses what fit refuses: a knn model over zero columns, with six empty training rows."""
        import json

        blob_dict = json.loads(model_to_json(fitted_models["knn"]))
        blob_dict["feature_names"] = []
        blob_dict["standardizer"] = {"mean": [], "std": []}
        blob_dict["state"]["train_X"] = [[] for _ in range(6)]
        blob_dict["state"]["train_y"] = [0, 1, 0, 1, 1, 0]
        with pytest.raises(ValueError, match="^model: a model needs at least one feature column, got no feature names$"):
            model_from_json(json.dumps(blob_dict))
        with pytest.raises(ValueError, match="non-empty 2-D matrix"):
            fit(preset("knn"), np.empty((5, 0)), np.array([0, 1, 0, 1, 1]))

    def test_an_int_stands_for_a_float(self, blob, fitted_models):
        import json

        X, _ = blob
        blob_dict = json.loads(model_to_json(fitted_models["logreg"]))
        blob_dict["state"]["bias"] = 0
        model = model_from_json(json.dumps(blob_dict))
        assert model.state.bias == 0.0 and np.all(np.isfinite(model.score(X)))

    @pytest.mark.parametrize(
        "name,key,change,message",
        [
            pytest.param(
                "knn", "train_X", lambda v: [row[:1] for row in v],
                "train_X must have shape (m, 2) with m >= 1, got (200, 1)", id="knn-1-column",
            ),
            pytest.param(
                "knn", "train_X", lambda v: [], "train_X must have shape (m, 2) with m >= 1, got (0,)", id="knn-no-rows"
            ),
            pytest.param(
                "knn", "train_y", lambda v: v[:-1], "train_y must hold 200 labels of 0 or 1, got shape (199,)", id="knn-199-labels"
            ),
            pytest.param(
                "knn", "train_y", lambda v: [2.0] + v[1:], "train_y must hold 200 labels of 0 or 1, got shape (200,)", id="knn-label-2"
            ),
            pytest.param(
                "gnb", "log_prior", lambda v: v + [-1.0],
                "log_prior, theta and var must have shapes ((2,), (2, 2), (2, 2)), got ((3,), (2, 2), (2, 2))", id="gnb-3-priors",
            ),
            pytest.param(
                "gnb", "theta", lambda v: [row[:1] for row in v],
                "log_prior, theta and var must have shapes ((2,), (2, 2), (2, 2)), got ((2,), (2, 1), (2, 2))", id="gnb-1-column-theta",
            ),
            pytest.param(
                "gnb", "var", lambda v: [row[:1] for row in v],
                "log_prior, theta and var must have shapes ((2,), (2, 2), (2, 2)), got ((2,), (2, 2), (2, 1))", id="gnb-1-column-var",
            ),
            pytest.param("gnb", "var", lambda v: [[-1.0, v[0][1]], v[1]], "var must be finite and > 0", id="gnb-negative-var"),
            pytest.param(
                "logreg", "weights", lambda v: [str(w) for w in v], "array items must be numbers, got str", id="logreg-string-weights"
            ),
            pytest.param("knn", "train_X", lambda v: [v[0][:1]] + v[1:], "array items must be numbers, got list", id="knn-ragged-rows"),
            pytest.param(
                "gnb", "theta", lambda v: [[None, v[0][1]], v[1]], "array items must be numbers, got NoneType", id="gnb-null-theta"
            ),
            pytest.param(
                "gnb", "theta", lambda v: [[math.inf, v[0][1]], v[1]], "array items must be finite 64-bit numbers", id="gnb-inf-theta"
            ),
            pytest.param(
                "knn", "train_y", lambda v: [2**64] + v[1:], "array items must be finite 64-bit numbers", id="knn-huge-label"
            ),
            pytest.param("logreg", "weights", lambda v: v + [0.5], "weights must have shape (2,), got (3,)", id="logreg-3-weights"),
            pytest.param("logreg", "weights", lambda v: v[:1], "weights must have shape (2,), got (1,)", id="logreg-1-weight"),
            pytest.param(
                "mlp", "weights", lambda v: [v[0][:1]] + v[1:],
                "layer 0 must have weights of shape (2, m) and a bias of (m,), got (1, 128) and (128,)", id="mlp-first-layer-fan-in",
            ),
            pytest.param(
                "mlp", "weights", lambda v: v[:3] + v[4:], "an mlp needs a layer and one bias per layer, got 8 layers and 9 biases", id="mlp-missing-layer"
            ),
            pytest.param(
                "mlp", "biases", lambda v: v[:2] + [v[2][:1]] + v[3:],
                "layer 2 must have weights of shape (64, m) and a bias of (m,), got (64, 32) and (1,)", id="mlp-1-element-bias",
            ),
        ],
    )
    def test_states_of_the_wrong_shape_refused(self, fitted_models, name, key, change, message):
        import json

        model = fitted_models[name]
        blob_dict = json.loads(model_to_json(model))
        blob_dict["state"][key] = change(blob_dict["state"][key])
        with pytest.raises(ValueError, match=f"^model state '{model.state.kind}': {re.escape(message)}$"):
            model_from_json(json.dumps(blob_dict))

    @pytest.mark.parametrize(
        "name,path,change,message",
        [
            pytest.param(
                "dt", ("state", "tree", "value"), lambda v: [str(w) for w in v],
                "model state 'decision_tree': array items must be numbers, got str", id="dt-string-values",
            ),
            pytest.param(
                "dt", ("state", "tree", "feature"), lambda v: [f >= 0 for f in v],
                "model state 'decision_tree': array items must be numbers, got bool", id="dt-bool-features",
            ),
            pytest.param(
                "dt", ("state", "tree", "threshold"), lambda v: [math.nan] + v[1:],
                "model state 'decision_tree': array items must be finite 64-bit numbers", id="dt-nan-threshold",
            ),
            pytest.param(
                "mlp", ("state",), lambda v: {**v, "weights": v["weights"][:-1], "biases": v["biases"][:-1]},
                "model state 'mlp': the last layer must have one output, got 8", id="mlp-8-outputs",
            ),
            pytest.param(
                "mlp", ("state",), lambda v: {**v, "weights": [], "biases": []},
                "model state 'mlp': an mlp needs a layer and one bias per layer, got 0 layers and 0 biases", id="mlp-no-layers",
            ),
            pytest.param(
                "constant", ("state", "label"), lambda v: 5, "model state 'constant': label must be 0 or 1, got 5", id="constant-label-5"
            ),
            pytest.param(
                "knn", ("standardizer", "mean"), lambda v: v[:1],
                "model standardizer: mean and std must have shape (2,), got (1,) and (2,)", id="knn-1-element-mean",
            ),
            pytest.param(
                "knn", ("standardizer", "std"), lambda v: [v[0], 0.0], "model standardizer: std must be > 0", id="knn-zero-std"
            ),
            pytest.param(
                "knn", ("standardizer",), lambda v: None,
                "model: spec.standardize is True but the model has no standardizer", id="knn-without-standardizer",
            ),
            pytest.param(
                "dt", ("standardizer",), lambda v: {"mean": [0.0, 0.0], "std": [2.0, 2.0]},
                "model: spec.standardize is False but the model has a standardizer", id="dt-with-standardizer",
            ),
            pytest.param(
                "knn", ("spec", "family"), lambda v: "svm",
                f"model: unknown classifier family 'svm' (known: {family_names()})", id="unknown-family",
            ),
            pytest.param(
                "knn", ("hyperparams", "k"), lambda v: 7,
                "model: hyperparams {'k': 7} are not the spec's resolved {'k': 5}", id="edited-k",
            ),
            pytest.param(
                "knn", ("state", "k"), lambda v: 7, "model: state k 7 is not the hyperparameter's 5", id="state-k-not-hyperparameter"
            ),
            pytest.param(
                "xgb", ("state", "learning_rate"), lambda v: 5.0,
                "model: state learning_rate 5.0 is not the hyperparameter's 0.3", id="state-learning-rate-not-hyperparameter",
            ),
            pytest.param(
                "knn", ("spec", "hyperparams"), lambda v: {"k": -3},
                "model: invalid value for KNearest hyperparameter 'k': -3", id="invalid-k",
            ),
            pytest.param(
                "knn", ("spec", "hyperparams"), lambda v: {**v, "depth": 3},
                "model: unknown hyperparameter 'depth' for KNearest (known: ('k',))", id="unknown-hyperparameter",
            ),
            pytest.param(
                "knn", ("feature_names",), lambda v: [v[0], v[0]],
                "model: feature names must be distinct, got ('f0', 'f0')", id="repeated-feature-names",
            ),
            pytest.param(
                "knn", ("feature_names",), lambda v: [0] + v[1:], "model feature_names: expected str, got 0", id="feature-name-0"
            ),
            pytest.param("knn", ("spec",), lambda v: 5, "model spec: expected dict, got 5", id="spec-5"),
            pytest.param(
                "knn", ("state",), lambda v: [1, 2], "model: state must be a registered model state, got a tuple", id="state-list"
            ),
        ],
    )
    def test_values_that_cannot_score_refused(self, fitted_models, state_models, name, path, change, message):
        import json

        blob_dict = json.loads(model_to_json({**fitted_models, **state_models}[name]))
        *parents, key = path
        target = blob_dict
        for parent in parents:
            target = target[parent]
        target[key] = change(target[key])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_from_json(json.dumps(blob_dict))

    def test_fit_refuses_repeated_feature_names(self, blob):
        X, y = blob
        with pytest.raises(ValueError, match=re.escape("feature names must be distinct, got ('a', 'a')")):
            fit(preset("gnb"), X, y, feature_names=("a", "a"))

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


class TestTreeArrays:
    """Malformed node arrays are refused when a tree is built, model JSON included."""

    @staticmethod
    def stump(**changes):
        arrays = dict(
            feature=np.array([0, -1, -1]),
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            value=np.array([0.0, 0.25, 0.75]),
        )
        arrays.update({key: np.array(value) for key, value in changes.items()})
        return TreeArrays(**arrays)

    def test_well_formed_tree_accepted(self):
        assert self.stump().apply(np.array([[0.0], [1.0]])).tolist() == [0.25, 0.75]
        single_leaf = TreeArrays(*(np.array([v]) for v in (-1, 0.0, -1, -1, 0.5)))
        assert single_leaf.apply(np.zeros((2, 3))).tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"left": [1, -1]}, "equal length"),
            ({"value": [[0.0, 0.25, 0.75]]}, "equal length"),
            ({name: [] for name in ("feature", "threshold", "left", "right", "value")}, "non-empty"),
            ({"left": [0, -1, -1]}, "node 0"),  # a cycle: score would never return
            ({"right": [3, -1, -1]}, "node 0"),
            ({"left": [-1, -1, -1]}, "node 0"),
            ({"right": [2, 2, -1]}, "node 1"),  # a leaf with a child
            ({"feature": [0, 0, -1], "left": [1, 0, -1], "right": [2, 1, -1]}, "node 1"),
        ],
    )
    def test_malformed_arrays_refused(self, changes, message):
        with pytest.raises(ValueError, match=message):
            self.stump(**changes)

    def test_model_json_with_a_cycle_refused(self, fitted_models):
        import json

        for name, location in (("dt", lambda state: state["tree"]), ("xgb", lambda state: state["trees"][3])):
            blob_dict = json.loads(model_to_json(fitted_models[name]))
            tree = location(blob_dict["state"])
            tree["left"][0] = 0
            with pytest.raises(ValueError, match="tree node 0 has children"):
                model_from_json(json.dumps(blob_dict))
            tree["left"][0] = 1
            tree["right"] = tree["right"][:-1]
            with pytest.raises(ValueError, match="equal length"):
                model_from_json(json.dumps(blob_dict))

    @pytest.mark.parametrize(
        "name,kind,location",
        [
            ("dt", "decision_tree", lambda state: state["tree"]),
            ("xgb", "boosted_trees", lambda state: state["trees"][3]),
            ("extratrees", "extra_trees", lambda state: state["trees"][1]),
        ],
    )
    def test_model_json_with_bad_tree_arrays_refused(self, fitted_models, name, kind, location):
        import json

        text = model_to_json(fitted_models[name])
        for key in ("feature", "left", "right"):
            blob_dict = json.loads(text)
            tree = location(blob_dict["state"])
            tree[key] = [float(v) for v in tree[key]]
            with pytest.raises(ValueError, match=f"^model state '{kind}': tree feature, left and right must be integer"):
                model_from_json(json.dumps(blob_dict))
        blob_dict = json.loads(text)
        tree = location(blob_dict["state"])
        n_columns = len(blob_dict["feature_names"])
        node = max(i for i, column in enumerate(tree["feature"]) if column >= 0)
        tree["feature"][node] = n_columns
        with pytest.raises(ValueError, match=f"^model state '{kind}': tree node {node} tests column {n_columns} "):
            model_from_json(json.dumps(blob_dict))
        tree["feature"][node] = n_columns - 1
        model_from_json(json.dumps(blob_dict))  # the last column is still the model's


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

    def test_fits_read_the_seed_draw_table(self, monkeypatch):
        """Fits of one seed share its draws, whatever their rows, and match a generator made per fit."""
        from opentrend.learners import trees

        rng = np.random.default_rng(21)
        X = rng.normal(size=(400, 16))
        y = (X[:, 0] + X[:, 5] - X[:, 9] + rng.normal(scale=1.5, size=400) > 0).astype(np.int64)

        def fresh_draws(seed, d, m):
            """A fresh ``default_rng(seed)`` per fit, in a record of its own: no last fit to start from."""
            return trees._SeedDraws([], random_candidates(np.random.default_rng(seed), d, m))

        def fit_both(seed, n_rows, n_cols, max_features=5):
            spec = ClassifierSpec("DecisionTree", {"max_depth": 12, "max_features": max_features}, seed=seed)
            got = model_to_json(fit(spec, X[:n_rows, :n_cols], y[:n_rows]))
            with monkeypatch.context() as m:
                m.setattr(trees, "_draw_list", fresh_draws)
                want = model_to_json(fit(spec, X[:n_rows, :n_cols], y[:n_rows]))
            assert got == want
            return got

        def cached():
            """(hits, misses, lists held) of the draw cache."""
            info = trees._draw_list.cache_info()
            return info.hits, info.misses, info.currsize

        trees._draw_list.cache_clear()
        a = fit_both(7, 300, 16)
        assert cached() == (0, 1, 1)
        fit_both(8, 300, 16)
        assert cached() == (0, 2, 1)  # seed 8 evicts seed 7
        assert fit_both(7, 300, 16) == a  # the list of seed 7 is drawn afresh
        assert cached() == (0, 3, 1)
        fit_both(7, 400, 16)  # more rows, more nodes: the list grows past the draws of the smaller fits
        fit_both(7, 250, 16)
        assert cached() == (2, 3, 1)  # one list per key, read by every fit of that key
        fit_both(7, 400, 4, max_features=3)
        assert cached() == (2, 4, 1)
        assert len(trees._draw_list(7, 4, 3).drawn) > 0
        assert cached() == (3, 4, 1)
        fit_both(7, 400, 16, max_features=16)  # every column is a candidate: a key with no draws, and a last fit
        assert cached() == (3, 5, 1)
        fit_both(7, 400, 4)  # max_features 5 of 4 columns
        assert cached() == (3, 6, 1)
        record = trees._draw_list(7, 4, 5)
        assert record.draw is None and record.drawn == [] and record.last.grown.n_rows == 400

    def test_reader_outlives_its_evicted_key(self, monkeypatch):
        """A reader of seed 7 keeps reading seed 7's draws after a seed 8 fit evicts that key."""
        from opentrend.learners import trees

        rng = np.random.default_rng(22)
        X = rng.normal(size=(400, 16))
        y = (X[:, 1] - X[:, 4] + rng.normal(scale=1.5, size=400) > 0).astype(np.int64)
        spec = ClassifierSpec("DecisionTree", {"max_depth": 12, "max_features": 5}, seed=7)
        trees._draw_list.cache_clear()
        fit(spec, X[:200], y[:200])  # seed 7's list holds the draws of a small fit
        record = trees._draw_list(7, 16, 5)
        fit(dataclasses.replace(spec, seed=8), X, y)
        assert trees._draw_list.cache_info().misses == 2  # seed 8 evicted seed 7
        with monkeypatch.context() as m:  # past the small fit's draws, the evicted record draws from seed 7's generator
            m.setattr(trees, "_draw_list", lambda *key: record)
            got = model_to_json(fit(spec, X, y))
        gen = np.random.default_rng(7)
        with monkeypatch.context() as m:  # a record of its own: no last fit, so the reference grows from scratch
            m.setattr(trees, "_draw_list", lambda *key: trees._SeedDraws([], random_candidates(gen, 16, 5)))
            want = model_to_json(fit(spec, X, y))
        assert got == want

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        model = fit(preset("dt"), X, np.array([1, 1, 1]))
        assert isinstance(model.state, ConstantState)



def _rolling_data(kind, n=260, d=8, seed=5):
    """(X, y) for expanding-window refits; kind picks how the values tie."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] - X[:, 3] + rng.normal(scale=1.0, size=n) > 0).astype(np.int64)
    if kind == "rounded":  # a few distinct values per column: ties everywhere
        X = np.round(X)
    elif kind == "signed_zeros":  # one column of 0.0 and -0.0, which sort as equals
        X[:, 2] = np.where(rng.random(n) < 0.5, 0.0, -0.0) * (X[:, 2] > 0)
        X[:, 5] = np.copysign(0.0, X[:, 5])
    elif kind == "reverse_ties":  # rows past 200 repeat old values in tied pairs, each pair below the one before
        X = np.round(X)
        X[200:] = np.tile(np.repeat([2.0, 1.0, 0.0, -1.0], 2), n)[: n - 200, None]
    return X, y


class TestRollingRefits:
    """An expanding-window refit of a DecisionTree starts from the last fit of its seed draws, with a fresh fit's bytes."""

    spec = ClassifierSpec("DecisionTree", {"max_depth": 10, "max_features": 3}, seed=11)

    @staticmethod
    def fresh(spec, X, y):
        """A fit that starts from nothing: the draw cache, and the last fit with it, is cleared first."""
        from opentrend.learners import trees

        trees._draw_list.cache_clear()
        return model_to_json(fit(spec, X, y))

    # every column a candidate (max_features 5 >= 4 columns, as with the INT set): no draws, a last fit all the same
    all_columns = ClassifierSpec("DecisionTree", {"max_depth": 10}, seed=11)

    def assert_refits_equal_fresh_fits(self, spec, X, y, step):
        from opentrend.learners import trees

        trees._draw_list.cache_clear()
        windows = [200 + step * i for i in range(6)]
        refits = []
        for n in windows:
            refits.append(model_to_json(fit(spec, X[:n], y[:n])))
            ids, values = trees._draw_list(11, X.shape[1], spec.hyperparams.get("max_features", 5)).last.block
            want_ids, want_values = sort_columns(X[:n])
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(values.view(np.int64), want_values.view(np.int64))  # -0.0 is not 0.0
        for n, got in zip(windows, refits):
            assert got == self.fresh(spec, X[:n], y[:n]), n

    @pytest.mark.parametrize("step", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["continuous", "rounded", "signed_zeros", "reverse_ties"])
    def test_expanding_refits_equal_fresh_fits(self, kind, step):
        X, y = _rolling_data(kind)
        self.assert_refits_equal_fresh_fits(self.spec, X, y, step)

    @pytest.mark.parametrize("step", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["continuous", "rounded", "signed_zeros", "reverse_ties"])
    def test_all_column_refits_equal_fresh_fits(self, kind, step):
        X, y = _rolling_data(kind, d=6)
        self.assert_refits_equal_fresh_fits(self.all_columns, X[:, [0, 2, 3, 5]], y, step)  # signal and kind's columns

    def test_refit_copies_unchanged_subtrees(self, monkeypatch):
        """A one-row refit calls the finder less often than a fresh fit of the same rows."""
        from opentrend.learners import trees

        calls = []

        def counting(target, criterion):
            find = make_exhaustive_finder(target, criterion)
            return lambda *args: calls.append(1) or find(*args)

        monkeypatch.setattr(trees, "make_exhaustive_finder", counting)
        X, y = _rolling_data("continuous")
        trees._draw_list.cache_clear()
        fit(self.spec, X[:200], y[:200])
        calls.clear()
        refit = model_to_json(fit(self.spec, X[:201], y[:201]))
        reused = len(calls)
        calls.clear()
        assert refit == self.fresh(self.spec, X[:201], y[:201])
        assert 0 < reused < len(calls) // 2

    def test_all_column_refit_grows_only_nodes_of_the_new_row(self, monkeypatch):
        """With no draws, every subtree of old rows is copied, also after the new row shifted the draw indices.

        Row 201 splits a leaf that was pure, so the nodes after it in depth-first
        order get later draw indices than their counterparts: a source that
        draws every column, whose copies need equal draw indices, regrows them.
        """
        from opentrend.learners import trees

        grown = []

        def recording(target, criterion):
            find = make_exhaustive_finder(target, criterion)
            return lambda idx, *args: grown.append(idx) or find(idx, *args)

        monkeypatch.setattr(trees, "make_exhaustive_finder", recording)
        X, y = _rolling_data("continuous")
        X = X[:, :4]

        def refit():
            fit(self.all_columns, X[:201], y[:201])
            grown.clear()
            return model_to_json(fit(self.all_columns, X[:202], y[:202]))

        trees._draw_list.cache_clear()
        got = refit()
        assert grown and all(201 in idx for idx in grown)
        record = trees._SeedDraws([], lambda: np.arange(4))
        with monkeypatch.context() as m:
            m.setattr(trees, "_draw_list", lambda *key: record)
            strict = refit()
            assert any(201 not in idx for idx in grown)
        assert strict == got == self.fresh(self.all_columns, X[:202], y[:202])

    def fallback(self, X, y, then, spec=None):
        """Fit rows [0, 200), then ``then`` (an (X, y) pair or a callable making one) with spec: a fresh fit's bytes."""
        from opentrend.learners import trees

        trees._draw_list.cache_clear()
        fit(self.spec, X[:200], y[:200])
        X2, y2 = then() if callable(then) else then
        spec = spec or self.spec
        assert model_to_json(fit(spec, X2, y2)) == self.fresh(spec, X2, y2)

    def test_edited_prefix_fits_afresh(self):
        X, y = _rolling_data("continuous")
        X = X.copy()

        def edit():
            X[:100] = X[:100, ::-1]  # in place, in the caller's array the last fit read
            return X[:201], y[:201]

        self.fallback(X, y, edit)

    def test_signed_zero_edit_is_seen(self):
        """Turning a prefix 0.0 into -0.0 in place changes no comparison, but the carried block must hold the new bits."""
        from opentrend.learners import trees

        X, y = _rolling_data("signed_zeros")
        X = X.copy()
        trees._draw_list.cache_clear()
        fit(self.spec, X[:200], y[:200])
        X[:100, 5] = -X[:100, 5]
        got = model_to_json(fit(self.spec, X[:201], y[:201]))
        values = trees._draw_list(11, X.shape[1], 3).last.block[1]
        np.testing.assert_array_equal(values.view(np.int64), sort_columns(X[:201])[1].view(np.int64))
        assert got == self.fresh(self.spec, X[:201], y[:201])

    @pytest.mark.parametrize("row", [7, 100, 199])
    def test_flipped_label_fits_afresh(self, row):
        X, y = _rolling_data("continuous")
        flipped = y.copy()
        flipped[row] = 1 - flipped[row]
        self.fallback(X, y, (X[:201], flipped[:201]))

    def test_shorter_window_fits_afresh(self):
        X, y = _rolling_data("continuous")
        self.fallback(X, y, (X[:150], y[:150]))

    @pytest.mark.parametrize("hyper", [{"max_depth": 4, "max_features": 3}, {"max_depth": 10, "max_features": 2}])
    def test_other_hyperparameters_fit_afresh(self, hyper):
        X, y = _rolling_data("continuous")
        self.fallback(X, y, (X[:201], y[:201]), dataclasses.replace(self.spec, hyperparams=hyper))

    def test_standardized_refit_fits_afresh(self):
        X, y = _rolling_data("continuous")
        spec = dataclasses.replace(self.spec, standardize=True)
        fit(spec, X[:200], y[:200])  # the scaled rows of a longer window are not an extension of these
        assert model_to_json(fit(spec, X[:201], y[:201])) == self.fresh(spec, X[:201], y[:201])

    def test_frozen_window_refits_fit_afresh(self):
        """A frozen window (``EvalMode.freeze_window``) slides: each refit drops the first row, so it fits afresh."""
        from opentrend.learners import trees

        X, y = _rolling_data("rounded")
        trees._draw_list.cache_clear()
        for start in range(4):
            got = model_to_json(fit(self.spec, X[start : start + 200], y[start : start + 200]))
            assert got == self.fresh(self.spec, X[start : start + 200], y[start : start + 200])
            fit(self.spec, X[start : start + 200], y[start : start + 200])  # the next window's last fit


def _gini(ones, n):
    p = ones / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def reference_split(X, target, criterion, idx, candidates):
    """The per-column exhaustive search the batched finder replaced.

    One stable argsort, cumulative sum and criterion evaluation per candidate
    column, over the real cuts only; returns (column, threshold, gain) or None.
    """
    t_node = target[idx]
    n = idx.size
    total = t_node.sum()
    best = None
    for col in candidates:
        xs = X[idx, col]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        cuts = np.nonzero(xs_sorted[:-1] < xs_sorted[1:])[0]
        if cuts.size == 0:
            continue
        n_left = cuts + 1.0
        sum_left = np.cumsum(t_node[order])[cuts]
        sum_right = total - sum_left
        if criterion is GINI:
            weighted = (n_left * _gini(sum_left, n_left) + (n - n_left) * _gini(sum_right, n - n_left)) / n
            j = int(np.argmin(weighted))
            gain = _gini(total, n) - float(weighted[j])
        else:
            score = sum_left * sum_left / n_left + sum_right * sum_right / (n - n_left)
            j = int(np.argmax(score))
            gain = float(score[j]) - total * total / n
        if gain > 0.0 and (best is None or gain > best[2]):
            lo, hi = float(xs_sorted[cuts[j]]), float(xs_sorted[cuts[j] + 1])
            thr = (lo + hi) / 2.0
            if not lo <= thr < hi:  # the midpoint rounded onto hi (or overflowed): cut at lo
                thr = lo
            best = (int(col), thr, gain)
    return best


class TestExhaustiveFinder:
    """The column-batched finder against the per-column reference, bit for bit."""

    @staticmethod
    def block(X, idx):
        """The node's block, built by filtering each column's (value, row id) order to the node's rows."""
        order = np.argsort(X.T, axis=1, kind="stable")
        in_node = np.zeros(X.shape[0], dtype=bool)
        in_node[idx] = True
        ids = order[in_node[order]].reshape(X.shape[1], idx.size)
        return ids, X[ids, np.arange(X.shape[1])[:, None]]

    @staticmethod
    def split(X, target, criterion, idx, candidates):
        choice = make_exhaustive_finder(target, criterion)(idx, candidates, TestExhaustiveFinder.block(X, idx))
        return None if choice is None else (choice.column, choice.threshold, choice.gain)

    @pytest.mark.parametrize("criterion", [GINI, SSE], ids=["gini", "sse"])
    def test_matches_per_column_search_on_tie_heavy_data(self, criterion):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(1500):
            n_rows = int(rng.integers(2, 40))
            n_cols = int(rng.integers(1, 7))
            X = rng.integers(0, rng.integers(1, 6), size=(n_rows, n_cols)).astype(np.float64)
            X[:, rng.random(n_cols) < 0.2] = 3.0  # some all-tied columns
            if criterion is GINI:
                target = rng.integers(0, 2, size=n_rows).astype(np.float64)
            else:
                target = np.round(rng.normal(size=n_rows), int(rng.integers(0, 3)))
            size = 2 if rng.random() < 0.2 else int(rng.integers(2, n_rows + 1))
            idx = np.sort(rng.choice(n_rows, size=size, replace=False))
            candidates = np.sort(rng.choice(n_cols, size=int(rng.integers(1, n_cols + 1)), replace=False))
            expected = reference_split(X, target, criterion, idx, candidates)
            assert self.split(X, target, criterion, idx, candidates) == expected
            found += expected is not None
        assert 500 < found < 1500  # both outcomes are exercised

    @pytest.mark.parametrize("criterion", [GINI, SSE], ids=["gini", "sse"])
    def test_adjacent_doubles_split_between_them(self, criterion):
        """A cut between neighbouring doubles keeps lo <= threshold < hi, even where the midpoint rounds onto hi."""
        big = np.finfo(np.float64).max
        pairs = [
            (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # the midpoint rounds up to hi
            (1.0, 1.0 + 2.0**-52),  # the midpoint rounds down to lo
            (-1.0 - 2.0**-51, -1.0 - 2.0**-52),
            (0.0, 5e-324),
            (np.nextafter(big, 0.0), big),  # lo + hi overflows to inf
            (-big, np.nextafter(-big, 0.0)),  # ... and to -inf
        ]
        rng = np.random.default_rng(7)
        pairs += [(x, np.nextafter(x, np.inf)) for x in rng.normal(scale=1e3, size=50)]
        target = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        for lo, hi in pairs:
            X = np.array([[lo, 3.0], [hi, 3.0], [lo, 3.0], [hi, 3.0], [hi, 3.0], [lo, 3.0]])
            column, thr, gain = self.split(X, target, criterion, np.arange(6), np.arange(2))
            assert (column, thr, gain) == reference_split(X, target, criterion, np.arange(6), np.arange(2))
            assert column == 0 and gain > 0.0
            assert lo <= thr < hi, (lo, hi, thr)

    @pytest.mark.parametrize("criterion", [GINI, SSE], ids=["gini", "sse"])
    def test_all_tied_columns_have_no_split(self, criterion):
        X = np.column_stack([np.full(6, 2.0), np.full(6, -1.0)])
        target = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        assert self.split(X, target, criterion, np.arange(6), np.arange(2)) is None

    @staticmethod
    def interleaved(rng, n_rows, n_cols):
        """Tie-free continuous columns with some columns of few integers, which tie, placed among them at random."""
        X = rng.normal(size=(n_rows, n_cols))
        tied = rng.random(n_cols) < 0.4
        X[:, tied] = rng.integers(0, 4, size=(n_rows, int(tied.sum())))
        return X

    @pytest.mark.parametrize("criterion", [GINI, SSE], ids=["gini", "sse"])
    def test_root_tie_span_matches_per_column_search(self, criterion):
        """A finder told the root block's tie span equals the reference, with every column a candidate and with a subset."""
        rng = np.random.default_rng(8)
        found = no_ties = untied_inside = 0
        for _ in range(1500):
            n_rows = int(rng.integers(2, 40))
            n_cols = int(rng.integers(1, 8))
            X = self.interleaved(rng, n_rows, n_cols)
            tied = [j for j in range(n_cols) if np.unique(X[:, j]).size < n_rows]
            span = tie_span(sort_columns(X))
            assert span == (slice(tied[0], tied[-1] + 1) if tied else None)
            no_ties += span is None
            untied_inside += span is not None and len(tied) < span.stop - span.start
            if criterion is GINI:
                target = rng.integers(0, 2, size=n_rows).astype(np.float64)
            else:
                target = np.round(rng.normal(size=n_rows), int(rng.integers(0, 3)))
            idx = np.sort(rng.choice(n_rows, size=int(rng.integers(2, n_rows + 1)), replace=False))
            subset = np.sort(rng.choice(n_cols, size=int(rng.integers(1, n_cols + 1)), replace=False))
            find = make_exhaustive_finder(target, criterion._replace(tied=span))
            for candidates in (np.arange(n_cols), subset):
                choice = find(idx, candidates, self.block(X, idx))
                expected = reference_split(X, target, criterion, idx, candidates)
                assert (None if choice is None else (choice.column, choice.threshold, choice.gain)) == expected
                found += expected is not None
        assert found > 1000 and no_ties > 100 and untied_inside > 100

    def test_fits_with_the_tie_span_equal_fits_that_mask_every_column(self, monkeypatch):
        """Boosting and an all-column dt write the same model JSON when the tie span is forced to every column."""
        from opentrend.learners import boosting, trees

        rng = np.random.default_rng(9)
        tied = rng.normal(size=(300, 6))
        tied[:, [1, 4]] = np.round(tied[:, [1, 4]], 1)  # tied columns 1 and 4 around tie-free 2 and 3
        untied = rng.normal(size=(300, 6))
        specs = (
            ClassifierSpec("GradientBoostedTrees", {"iterations": 20, "max_depth": 4, "learning_rate": 0.3}),
            ClassifierSpec("DecisionTree", {"max_depth": 8, "max_features": 6}),
        )
        for X, span in ((tied, slice(1, 5)), (untied, None)):
            assert tie_span(sort_columns(X)) == span
            y = (X[:, 0] + X[:, 1] - X[:, 4] + rng.normal(size=300) > 0).astype(np.int64)
            models = []
            for forced in (False, True):
                with monkeypatch.context() as m:
                    spans = []

                    def every(block):
                        spans.append(block)
                        return slice(None)

                    if forced:
                        m.setattr(boosting, "tie_span", every)
                        m.setattr(trees, "tie_span", every)
                    for spec in specs:
                        trees._draw_list.cache_clear()  # a kept dt fit of the same rows would be copied, not grown
                        models.append(model_to_json(fit(spec, X, y)))
                    assert len(spans) == (2 if forced else 0)
            assert models[:2] == models[2:]


class TestCountTable:
    """The GINI count table and the counts handed down the tree, against the direct scoring, bit for bit."""

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=np.float64).view(np.int64)

    def test_entries_have_the_direct_paths_bits(self, monkeypatch):
        """Entry (L, l) is the term the direct path gives L ones among l rows, and l * gini(L, l) in scalar floats."""
        from opentrend.learners import trees

        table, starts = trees._gini_count_table()
        rows = trees._COUNT_TABLE_ROWS
        assert table.shape == ((rows + 1) * (rows + 2) // 2,) and starts[-1] == table.size
        l = np.repeat(np.arange(1, rows + 1), np.arange(2, rows + 2))
        ones = np.concatenate([np.arange(k + 1) for k in range(1, rows + 1)])
        entries = table[starts[l] + ones]
        # the direct path scores (term(L, l) + term(total - L, n_right)) / n; with n_right = total - L the right
        # side is all ones, whose term is exactly 0.0, and with n = 1 the division is exact
        total = 2 * rows + 1
        monkeypatch.setattr(trees, "_COUNT_TABLE_ROWS", 0)
        direct, _ = trees._gini_best_cut(
            total, 1, l.astype(np.float64), (total - ones).astype(np.float64), ones[None, :], 0.0, np.zeros((1, l.size), bool)
        )
        np.testing.assert_array_equal(self.bits(entries), self.bits(direct[0]))
        scalar = [_gini(float(L), float(n)) * float(n) for L, n in zip(ones.tolist(), l.tolist())]
        np.testing.assert_array_equal(self.bits(entries), self.bits(scalar))

    @pytest.mark.parametrize("n", [2, 3, 40, 256, 257, 400])
    def test_finder_choice_equals_the_direct_paths(self, monkeypatch, n):
        """Column, threshold, gain bits and child counts of random tie-heavy 0/1 nodes, with and without the table."""
        from opentrend.learners import trees

        rng = np.random.default_rng(n)
        found = 0
        for case in range(40):
            n_rows = n + int(rng.integers(0, 20))
            n_cols = int(rng.integers(1, 6))
            X = rng.integers(0, rng.integers(1, 12), size=(n_rows, n_cols)).astype(np.float64)
            target = (rng.random(n_rows) < rng.random()).astype(np.float64)
            idx = np.sort(rng.choice(n_rows, size=n, replace=False))
            candidates = np.sort(rng.choice(n_cols, size=int(rng.integers(1, n_cols + 1)), replace=False))
            choices = []
            for table_rows in (trees._COUNT_TABLE_ROWS, 0):  # 0: every node takes the direct path
                with monkeypatch.context() as m:
                    m.setattr(trees, "_COUNT_TABLE_ROWS", table_rows)
                    choices.append(self.choose(X, target, idx, candidates))
            assert choices[0] == choices[1], case
            expected = reference_split(X, target, GINI, idx, candidates)
            want = None if expected is None else (expected[0], expected[1], self.bits(expected[2]).item())
            assert (None if choices[0] is None else choices[0][:3]) == want
            if choices[0] is not None:
                found += 1
                column, threshold, _, counts = choices[0]
                go_left = X[idx, column] <= threshold
                assert counts == (int(target[idx[go_left]].sum()), int(target[idx[~go_left]].sum()))
        assert found > 0

    @staticmethod
    def choose(X, target, idx, candidates):
        choice = make_exhaustive_finder(target, GINI)(idx, candidates, TestExhaustiveFinder.block(X, idx))
        return None if choice is None else (choice.column, choice.threshold, TestCountTable.bits(choice.gain).item(), choice.counts)

    def test_each_node_gets_its_target_sum(self):
        """Every node after the root is handed target[idx].sum() of its rows, across nodes of more and fewer than W rows."""
        rng = np.random.default_rng(3)
        for case in range(4):
            n_rows = 700
            X = np.round(rng.normal(size=(n_rows, 4)), 1)
            y = (X[:, 0] + X[:, 2] + rng.normal(size=n_rows) > 0).astype(np.float64)
            find = make_exhaustive_finder(y, GINI)
            seen = []

            def checking(idx, candidates, block, count):
                assert count == (None if idx.size == n_rows else int(y[idx].sum()))
                seen.append(idx.size)
                return find(idx, candidates, block, count)

            tree = grow_tree(X, y, max_depth=10**9, candidates=None, find_split=checking, block=sort_columns(X)).tree
            assert max(seen[1:]) > 256 and min(seen) < 256
            expected = reference_tree(
                X,
                y,
                lambda idx, candidates: reference_split(X, y, GINI, idx, candidates),
                max_depth=10**9,
                max_features=None,
                rng=None,
                leaf_value=lambda idx: float(y[idx].mean()),
            )
            TestGrowTree.assert_same_tree(tree, expected)


def _entropy(ones, n):
    p = ones / n
    return -sum(q * math.log(q) for q in (p, 1.0 - p) if q > 0)


def reference_random_split(X, y, idx, candidates, rng):
    """The per-column random-threshold entropy split the block finder replaced.

    One scalar uniform draw between the node's minimum and maximum per
    non-constant candidate column, in ascending column order; returns
    (column, threshold, gain) or None.
    """
    y_node = y[idx]
    n = idx.size
    parent = _entropy(float(y_node.sum()), n)
    best = None
    for col in candidates:
        xs = X[idx, col]
        lo, hi = float(xs.min()), float(xs.max())
        if lo == hi:
            continue
        thr = float(rng.uniform(lo, hi))
        go_left = xs <= thr
        n_left = int(go_left.sum())
        if n_left == 0 or n_left == n:
            continue
        ones_left = float(y_node[go_left].sum())
        ones_right = float(y_node.sum()) - ones_left
        child = (n_left * _entropy(ones_left, n_left) + (n - n_left) * _entropy(ones_right, n - n_left)) / n
        gain = parent - child
        if gain > 0.0 and (best is None or gain > best[2]):
            best = (int(col), thr, gain)
    return best


def reference_tree(X, target, split, *, max_depth, max_features, rng, leaf_value):
    """Depth-first growth with ``split(idx, candidates)`` at every node, as flat node lists.

    Nodes are numbered and candidate columns drawn in the grower's order: a
    split allocates its left then its right child, and the left subtree is
    grown (drawing from ``rng``) before the right one.
    """
    feature, threshold, left, right, value = [], [], [], [], []

    def alloc():
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (value, 0.0)):
            column.append(blank)
        return len(feature) - 1

    def grow(node, idx, depth):
        choice = None
        if depth < max_depth and idx.size >= 2 and np.ptp(target[idx]) != 0.0:
            n_features = X.shape[1]
            if max_features is not None and max_features < n_features:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                candidates = np.arange(n_features)
            choice = split(idx, candidates)
        if choice is None:
            value[node] = leaf_value(idx)
            return
        column, thr, _gain = choice
        go_left = X[idx, column] <= thr
        feature[node], threshold[node] = column, thr
        left[node], right[node] = alloc(), alloc()
        grow(left[node], idx[go_left], depth + 1)
        grow(right[node], idx[~go_left], depth + 1)

    grow(alloc(), np.arange(X.shape[0]), 0)
    return feature, threshold, left, right, value


class TestGrowTree:
    """Whole trees from ``grow_tree`` against the reference grower, bit for bit."""

    @staticmethod
    def assert_same_tree(tree, expected):
        for name, column in zip(("feature", "threshold", "left", "right", "value"), expected):
            got = getattr(tree, name)
            want = np.array(column, dtype=got.dtype)
            assert got.dtype == (np.float64 if name in ("threshold", "value") else np.int64), name
            assert got.tobytes() == want.tobytes(), name

    @staticmethod
    def tie_heavy(rng):
        n_rows = int(rng.integers(2, 61))
        n_cols = int(rng.integers(1, 7))
        X = rng.integers(0, rng.integers(1, 6), size=(n_rows, n_cols)).astype(np.float64)
        X[:, rng.random(n_cols) < 0.15] = 3.0  # some all-tied columns
        max_depth = 10**9 if rng.random() < 0.5 else int(rng.integers(1, 6))
        return X, max_depth

    def test_gini_with_column_subsampling(self):
        rng = np.random.default_rng(11)
        splits = 0
        for case in range(300):
            X, max_depth = self.tie_heavy(rng)
            y = rng.integers(0, 2, size=X.shape[0]).astype(np.float64)
            max_features = int(rng.integers(1, X.shape[1] + 1))
            tree = grow_tree(
                X,
                y,
                max_depth=max_depth,
                candidates=random_candidates(np.random.default_rng(case), X.shape[1], max_features),
                find_split=make_exhaustive_finder(y, GINI),
                block=sort_columns(X),
            ).tree
            expected = reference_tree(
                X,
                y,
                lambda idx, candidates: reference_split(X, y, GINI, idx, candidates),
                max_depth=max_depth,
                max_features=max_features,
                rng=np.random.default_rng(case),
                leaf_value=lambda idx: float(y[idx].mean()),
            )
            self.assert_same_tree(tree, expected)
            splits += int((tree.feature >= 0).sum())
        assert splits > 1000

    def test_sse_with_newton_leaves(self):
        rng = np.random.default_rng(12)
        splits = 0
        for _ in range(300):
            X, max_depth = self.tie_heavy(rng)
            p = np.round(rng.uniform(0.05, 0.95, size=X.shape[0]), 1)  # tied gradients
            gradient = rng.integers(0, 2, size=X.shape[0]) - p
            hessian = p * (1.0 - p)

            def leaf_value(idx):
                return float(gradient[idx].sum() / (hessian[idx].sum() + 1e-12))

            tree = grow_tree(
                X,
                gradient,
                max_depth=max_depth,
                candidates=None,
                find_split=make_exhaustive_finder(gradient, SSE),
                leaf_value=leaf_value,
                block=sort_columns(X),
            ).tree
            expected = reference_tree(
                X,
                gradient,
                lambda idx, candidates: reference_split(X, gradient, SSE, idx, candidates),
                max_depth=max_depth,
                max_features=None,
                rng=None,
                leaf_value=leaf_value,
            )
            self.assert_same_tree(tree, expected)
            splits += int((tree.feature >= 0).sum())
        assert splits > 1000

    @pytest.mark.parametrize("criterion", [GINI, SSE], ids=["gini", "sse"])
    def test_adjacent_doubles_leave_no_empty_child(self, criterion):
        """Columns of neighbouring doubles grow the reference tree, and every split sends rows both ways."""
        rng = np.random.default_rng(14)
        for _ in range(100):
            n_rows = int(rng.integers(2, 40))
            X = np.tile(rng.normal(scale=10.0, size=int(rng.integers(1, 4))), (n_rows, 1))
            steps = rng.integers(0, 3, size=X.shape)  # 0, 1 or 2 doubles above each column's base value
            for step in (1, 2):
                X = np.where(steps >= step, np.nextafter(X, np.inf), X)
            if criterion is GINI:
                target = rng.integers(0, 2, size=n_rows).astype(np.float64)
            else:
                target = np.round(rng.normal(size=n_rows), 1)
            tree = grow_tree(
                X,
                target,
                max_depth=12,
                candidates=None,
                find_split=make_exhaustive_finder(target, criterion),
                block=sort_columns(X),
            ).tree
            expected = reference_tree(
                X,
                target,
                lambda idx, candidates: reference_split(X, target, criterion, idx, candidates),
                max_depth=12,
                max_features=None,
                rng=None,
                leaf_value=lambda idx: float(target[idx].mean()),
            )
            self.assert_same_tree(tree, expected)
            reached = np.zeros(tree.feature.size, dtype=np.int64)  # rows through each node
            for row in X:
                node = 0
                reached[node] += 1
                while tree.feature[node] >= 0:
                    go_left = row[tree.feature[node]] <= tree.threshold[node]
                    node = tree.left[node] if go_left else tree.right[node]
                    reached[node] += 1
            assert (reached > 0).all() and np.isfinite(tree.value).all()

    @pytest.mark.parametrize("name", ["dt", "xgb"])
    def test_midpoint_that_rounds_up_is_moved_down(self, name):
        """Between 1 + 2^-52 and 1 + 2^-51 the midpoint rounds onto the upper value; the cut must still part them."""
        a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
        assert (a + b) / 2.0 == b
        X = np.array([[a], [b], [a], [b]])
        y = np.array([0, 1, 0, 1])
        model = fit(preset(name), X, y)
        trees = [model.state.tree] if name == "dt" else model.state.trees
        for tree in trees:
            internal = np.nonzero(tree.feature >= 0)[0]
            assert internal.tolist() == [0]  # one split parts the rows; its children are leaves
            assert tree.threshold[0] == a
            assert np.isfinite(tree.value).all()
        assert predict(model, X).tolist() == y.tolist()
        loaded = model_from_json(model_to_json(model))
        assert model_to_json(loaded) == model_to_json(model)
        assert predict(loaded, X).tolist() == y.tolist()

    def test_random_entropy_with_column_subsampling(self):
        rng = np.random.default_rng(13)
        splits = 0
        node_sizes = []  # rows of every node the reference finder scored
        for case in range(400):
            X, max_depth = self.tie_heavy(rng)
            if case % 10 == 0:
                X[:] = 3.0  # every column tied: the root is a leaf
            y = rng.integers(0, 2, size=X.shape[0]).astype(np.float64)
            max_features = int(rng.integers(1, X.shape[1] + 1))
            kwargs = dict(max_depth=max_depth, max_features=max_features)
            tree_rng = np.random.default_rng(case)
            tree = grow_tree(
                X,
                y,
                max_depth=max_depth,
                candidates=random_candidates(tree_rng, X.shape[1], max_features),
                find_split=make_random_entropy_finder(y, tree_rng),
                block=sort_columns(X),
            ).tree
            ref_rng = np.random.default_rng(case)

            def split(idx, candidates):
                node_sizes.append(idx.size)
                return reference_random_split(X, y, idx, candidates, ref_rng)

            expected = reference_tree(
                X, y, split, **kwargs, rng=ref_rng, leaf_value=lambda idx: float(y[idx].mean())
            )
            self.assert_same_tree(tree, expected)
            assert tree_rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws, in the same order
            splits += int((tree.feature >= 0).sum())
        assert splits > 1000 and node_sizes.count(2) > 100


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


def former_score(state, X):
    """Each tree-shaped state's score as its own scorer once wrote it, for ``TreeSum.score`` to match bit for bit."""
    if isinstance(state, DecisionTreeState):
        return state.tree.apply(X)
    if isinstance(state, BoostedTreesState):
        z = np.full(X.shape[0], state.base_score)
        for tree in state.trees:
            z += state.learning_rate * tree.apply(X)
        return sigmoid(z)
    if isinstance(state, ExtraTreesState):
        total = np.zeros(X.shape[0])
        for tree in state.trees:
            total += tree.apply(X)
        return total / len(state.trees)
    return np.full(X.shape[0], float(state.label))


#: tree-shaped models: (preset, hyperparameters over the preset's, standardize, constant label or None)
TREE_SUMS = {
    "dt": ("dt", {}, False, None),
    "dt-scaled": ("dt", {}, True, None),
    "xgb": ("xgb", {}, False, None),
    "xgb-0-rounds": ("xgb", {"iterations": 0}, False, None),
    "catboost": ("catboost", {"iterations": 100}, False, None),
    "extratrees": ("extratrees", {"n_trees": 50}, False, None),
    "extratrees-1-tree": ("extratrees", {"n_trees": 1}, False, None),
    "constant-0": ("dt", {}, False, 0),
    "constant-1": ("dt", {}, False, 1),
}


class TestTreeSum:
    """Every tree-shaped state scores through ``TreeSum.score``, with the bits of its former scorer."""

    @pytest.fixture(scope="class")
    def problem(self):
        """Tie-heavy rounded training rows with noisy labels, so forest leaves hold fractions, and unrounded queries."""
        rng = np.random.default_rng(27)
        X = np.round(rng.normal(size=(240, 4)), 1)
        y = (X[:, 0] - 0.5 * X[:, 1] + rng.normal(scale=1.0, size=240) > 0).astype(np.int64)
        return X, y, rng.normal(size=(500, 4))

    @pytest.mark.parametrize("name", TREE_SUMS)
    def test_score_matches_the_former_scorer(self, problem, name):
        X, y, queries = problem
        kind, hyper, standardize, label = TREE_SUMS[name]
        base = preset(kind, seed=2)
        spec = ClassifierSpec(base.family, {**base.hyperparams, **hyper}, standardize, base.seed)
        model = fit(spec, X, y if label is None else np.full_like(y, label))
        assert isinstance(model.state, TreeSum)
        assert isinstance(model.state, ConstantState) == (label is not None)
        scaled = queries if model.standardizer is None else model.standardizer.transform(queries)
        assert model.score(queries).tobytes() == former_score(model.state, scaled).tobytes()

    def test_no_tree_shaped_state_writes_its_own_scorer(self):
        for cls in (DecisionTreeState, BoostedTreesState, ExtraTreesState, ConstantState):
            assert issubclass(cls, TreeSum) and "score" not in vars(cls), cls.__name__

    #: two full walk blocks of a 50-tree sum and three rows more: past the block bound of every sum of 50 or more trees
    PAST_BLOCK_ROWS = 2 * (_WALK_ENTRIES // 50) + 3

    @pytest.mark.parametrize("name", TREE_SUMS)
    def test_score_matches_the_former_scorer_at_one_row_and_past_the_block_bound(self, problem, name):
        X, y, _ = problem
        kind, hyper, standardize, label = TREE_SUMS[name]
        base = preset(kind, seed=2)
        spec = ClassifierSpec(base.family, {**base.hyperparams, **hyper}, standardize, base.seed)
        model = fit(spec, X, y if label is None else np.full_like(y, label))
        queries = np.random.default_rng(28).normal(size=(self.PAST_BLOCK_ROWS, 4))
        for rows in (queries[:1], queries):
            scaled = rows if model.standardizer is None else model.standardizer.transform(rows)
            assert model.score(rows).tobytes() == former_score(model.state, scaled).tobytes(), rows.shape[0]

    def test_scoring_memory_does_not_grow_with_trees_times_rows(self, problem):
        X, y, _ = problem
        model = fit(ClassifierSpec("ExtraTrees", {"n_trees": 200}, seed=2), X, y)
        queries = np.random.default_rng(29).normal(size=(65536, 4))
        tracemalloc.start()
        try:
            model.state.score(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # one (rows x trees) int64 array would be 100 MiB


class TestSigmoid:
    @staticmethod
    def two_branch(z):
        """The logistic function as two masked gathers and scatters, one per sign."""
        z = np.asarray(z, dtype=np.float64)
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def test_bits_equal_the_two_branch_form(self):
        """Signed zeros, subnormals, the saturation and underflow edges, the largest doubles and 10^5 values over many scales."""
        edges = np.array([0.0, 5e-324, 1e-300, 36.75, 709.78, 745.2, 1e308])
        rng = np.random.default_rng(31)
        exponents = np.concatenate([rng.uniform(-12.0, 3.0, 50_000), rng.uniform(-300.0, 308.0, 50_000)])
        z = np.concatenate([edges, -edges, rng.uniform(-1.0, 1.0, exponents.size) * 10.0**exponents])
        assert np.signbit(z[edges.size])  # -0.0 is among them
        assert sigmoid(z).tobytes() == self.two_branch(z).tobytes()


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

    #: leaf sizes on both sides of numpy's 8-element unrolled blocks and 128-element pairwise blocks
    LEAF_SIZES = [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 383, 384, 385, 1000, 2047, 2999, 3000]

    @pytest.mark.parametrize("size", LEAF_SIZES)
    def test_leaf_sums_have_the_bits_of_each_rows_sum(self, size):
        """Both sums of a leaf's (2, k) gather equal ``gradient[idx].sum()`` and ``hessian[idx].sum()`` bit for bit."""
        rng = np.random.default_rng(size)
        for _ in range(20):
            p = sigmoid(rng.normal(scale=4.0, size=3000))
            gradient = rng.integers(0, 2, 3000) - p
            pairs = np.stack([gradient, p * (1.0 - p)])
            idx = np.sort(rng.choice(3000, size=size, replace=False))
            g, h = _leaf_sums(pairs, idx)
            assert g.tobytes() == pairs[0][idx].sum().tobytes()
            assert h.tobytes() == pairs[1][idx].sum().tobytes()


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

    @pytest.mark.parametrize(
        ("m", "d", "k", "n_queries", "decimals"),
        [
            (989, 16, 5, 2048, None),  # 4-row blocks
            (585, 16, 5, 250, None),  # 7-row blocks and a 5-row tail
            (5000, 16, 5, 3, None),  # more terms than a block: one row per block
            (200, 3, 5, 2048, 1),  # rounded: many rows at the k-th distance
            (20, 2, 50, 64, 1),  # k > m: every training row votes
            (20, 2, 20, 64, 0),  # k = m
            (300, 4, 7, 1, 1),  # a one-row query
        ],
    )
    def test_scores_equal_the_first_k_of_a_stable_argsort(self, m, d, k, n_queries, decimals):
        rng = np.random.default_rng(m + d + k + n_queries)
        train = rng.normal(size=(m, d))
        train[m // 2 :] = train[: m - m // 2]  # the second half repeats the first
        queries = np.concatenate([train[: n_queries // 2], rng.normal(size=(n_queries, d))])[:n_queries]
        if decimals is not None:
            train, queries = np.round(train, decimals), np.round(queries, decimals)
        state = KNearestState(k=k, train_X=train, train_y=rng.integers(0, 2, m))
        expected = np.empty(n_queries)
        for i, row in enumerate(queries):  # reference: the first k of a full stable argsort, one row at a time
            deltas = row[None, None, :] - train[None, :, :]
            d2 = np.einsum("qnd,qnd->qn", deltas, deltas)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : min(k, m)]
            expected[i] = state.train_y[nearest].mean(axis=1)[0]
        np.testing.assert_array_equal(state.score(queries).view(np.int64), expected.view(np.int64))

    def test_scoring_memory_does_not_grow_with_query_rows(self):
        rng = np.random.default_rng(9)
        state = KNearestState(k=5, train_X=rng.normal(size=(989, 16)), train_y=rng.integers(0, 2, 989))
        queries = rng.normal(size=(2048, 16))
        tracemalloc.start()
        try:
            state.score(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # one difference array over all 2,048 rows would be 259 MB


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
