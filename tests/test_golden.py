"""Golden digests of the design matrix, the labels and fitted tree models on one fixed market.

The matrix and label digests were recorded before the feature and label
code became columnar.  They pin every bit: computing the NOW columns with
``np.log`` instead of ``math.log`` changes the last bit of some values,
which would change every result bundle built from them.  The model digests
were recorded before the exhaustive split finders were merged (16 columns)
and before the split search scored a node's columns in one batch (4
columns); any change to a split, a threshold or a leaf value of the tree
grower changes them.  The digests of the other state kinds were recorded
before the model JSON came from the state dataclasses' fields, so they pin
the serialised bytes of every kind.  The tie-heavy digests were recorded
before each tree node carried its own sorted column block: on the training
span rounded to two decimals many rows share a value, so they pin the
order in which tied rows are scanned.  The Shapley digests were recorded
while exact attribution still scored every hybrid row through the model;
they pin the bytes of phi, the base value and the output for a decision
tree on 16 columns and a logistic model on 4.  The 50-tree ExtraTrees
digests were recorded while the random-threshold splits still gathered each
candidate column from the node's rows instead of reading the node's sorted
block; they pin every uniform draw, threshold and leaf of the forest on 4
columns, on 16 and on the tied span.  The run-bundle digests were recorded
before the run defaults, the cell seed and the Shapley matrix each got a
single owner; they pin the bytes of one whole ``cmd_run`` bundle, rolling
cells and a Shapley set outside the grid included.  The kNN score digests
were recorded while kNN scoring still built one difference array per 1,024
query rows and sorted every distance row in full; they pin the bits of the
``knn`` preset's scores on the 247-row test span, which the model JSON does
not hold and the bundles see only through thresholded predictions.  The
tree-sum score digests were recorded while ``TreeSum.score`` still walked
each tree on its own; they pin the bits of ``xgb``, ``catboost`` cut to 100
rounds and ``extratrees`` cut to 50 trees on the same test span.  The
sampled Shapley digests were recorded while sampled attribution still scored
every hybrid of a sum of more than one tree; they pin the bytes of phi, the
base value and the output of ``dt`` and of those three cut ensembles, on 16
columns and on 4.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from opentrend.config import load_config
from opentrend.dataset import bind, split
from opentrend.explain import background_sample, shapley_exact, shapley_sampled
from opentrend.features import CANONICAL_COLUMNS, FeatureSetMask, assemble, select
from opentrend.labeling import ALL_TASKS, TaskKind, make_labels
from opentrend.learners import ClassifierSpec, fit, model_to_json, preset
from opentrend.ohlc import serialize_csv
from opentrend.run import cmd_run
from opentrend.synth import GenSpec, generate

VALUES_SHA256 = "c758fa87d37f722e36e376825c24015e2554a32b8697a1884281954ec8772ee7"
DATES_SHA256 = "b9af87521b09a025e9d32a51beb024e8160f60ebacf4db9c1b80b8cfe738b581"
LABELS_SHA256 = {
    "op": "ca8b94122e89742d427b9483d35693c21e6f2ef0b10ccc71d2b9542c2bef2fe7",
    "hi": "8b5c3b0f4c90150c9547cd4eed0b3108eac86b909a28b3065068b6420de7666b",
    "lo": "0944e9ead5c9b67dab978c4f3795fa27a84793196e3d615a1270456fc722d5f0",
    "cl": "fd7cb1c91e21f9552ce6e3339a58e8a1de9710eba26470c88cb4ec6ab39b410a",
}
MODEL_SHA256 = {
    "dt": "967f43f73387ddd02b345f343e4e986810ad54d362bd9e3bdde011e6e9c31f15",
    "xgb": "5f93f9fe2bd879cf07c42bc5f0baa9cddda2328e68e1aa39b4286cb9c77caf9f",
    "gbt20": "cf0274a4e45bd63311caa1dc0f4482edbb4b854e7768148af39d2ac2b3731dcd",
    "extratrees5": "72e15a68e939a9c038e8eaf462248b73fa039635648866776927e94b307e3acb",
}
#: dt and xgb on the 4-column INT matrix of the same span
INT_MODEL_SHA256 = {
    "dt": "353c34abc57ae724b2ff27ac2176042dd4f730afabd06ad91d75feeeec00ecf7",
    "xgb": "d9fd07729acf6b0d8d00dca1da942524ad7ac0baaaaa95c07fd0871f31aff451",
}
#: the non-tree state kinds, a single-class constant model and a zero-round GBT
STATE_MODEL_SHA256 = {
    "gnb": "a56c6f7b049e3879e70a865c5f86c47fc1368fe3e755ec9c7b69fa92ac47765f",
    "knn": "ef42d331c89f2efc5c035df2ec5e26245cf88a1e8958534a23e5d09376811e66",
    "logreg": "de4bb9f358bafc25327d89e51bc9ca2a67c9dd7b0a92889cc76e95187ad11e38",
    "mlp16x8": "231c7de32158195645fd68f129fd8e1e8aa09f36521f4596b6b8b6eaf3909a15",
    "constant": "d9f86296c651d902b9a57d5b242847a454f600ee3675e9363bb22b7ba2de51f4",
    "gbt0": "47794f6f59317c924bd3a3ae3248e4855fb310013c9190c161cebe146cf2ac63",
}
#: tree models on the 16-column span rounded to 2 decimals, where many values tie
TIED_MODEL_SHA256 = {
    "gbt30": "4501a8a459b9d01994f3507d2b2c3cabd087f379b32c98ad7f32134e79926735",
    "dt16": "56dc3a9837fa397fe3093afab889c64373f27c54f1b608a55fa5d16563e144e8",
    "dt": "74ed675a5c55a2b669b00b453535a81272cc3842d91b655b3c95ae073da88780",
}
#: exact Shapley of two training rows against a 128-row background
SHAPLEY_SHA256 = {
    "dt": "5bf82aa6e3c847e1f83057c39fb4fe1e161ca837d188a3b792fbad8e534aa1af",
    "logreg": "f9d052c4af9b2711b6c20be161797782293a5ff66c7edcc93d493be04af11cb8",
}
#: 50-tree ExtraTrees on INT, on INT+HIST+NOW and on the 16-column span rounded to 2 decimals
EXTRA_TREES_SHA256 = {
    "INT": "1a7d7506c2e0674cf0da1f948333a5aec7ff2c413171f08ba65df8e85f3636a7",
    "INT+HIST+NOW": "83c01d48ae6425e1c7690dd5aa3b53c4ad9d2ec78d52be246a2e592f98d680b8",
    "tied": "5585f1b812af223f191ddd18d23f2a17978d627a7eda45f60951ae6c31c65332",
}
#: the knn preset's scores on the 247-row test span, trained on the 989-row span
KNN_SCORE_SHA256 = {
    "INT+HIST+NOW": "e7872c857cca3f723e0537a10cb69c2435815d876141051f31d9fb3febb2e253",
    "INT": "bca7b3da206bbfd70705d2d1c29da8dfff99bd36093f60cbddf875d8ed248308",
}
#: xgb, catboost cut to 100 rounds and extratrees cut to 50 trees: scores on the 247-row test span, trained on the 989-row span
TREE_SUM_SCORE_SHA256 = {
    ("xgb", "INT+HIST+NOW"): "89d3a22fdb4b02d028373edff3b23d2955ce19c4ce7fb5913a233fe6e4669b9f",
    ("catboost", "INT+HIST+NOW"): "fe4a7e689b1580d5d1b7cb66e20d811253b25ee6cd96614899a036ca99cd8605",
    ("extratrees", "INT+HIST+NOW"): "fc7e3b9756d05017b6e5a8264b83c03fd9748a911d6c11cb45f004d4b91da64c",
    ("xgb", "INT"): "6e6afb802bb120d30b76e1c1797d39e1fc2c31852ebac4a9730f392087ee93ca",
    ("catboost", "INT"): "33da77c850c9b00f42548eec812a9548128e74c6b4acef43f8ac29f7431d77c3",
    ("extratrees", "INT"): "d94ecbd7605605e366479d09ed5e93a0ea1786bf3366edd9d51fde201572f706",
}
TREE_SUM_CUTS = {"xgb": {}, "catboost": {"iterations": 100}, "extratrees": {"n_trees": 50}}
#: sampled Shapley, 20 orderings, of the first two test rows against a 128-row background: dt and the cut tree sums
SAMPLED_SHAPLEY_SHA256 = {
    ("dt", "INT+HIST+NOW"): "f5116dbf5d088d5381fae3ebdd8a5ce25dba5549e9473789f86f9ecf0f1f0f4c",
    ("xgb", "INT+HIST+NOW"): "3c8acfc78b16be556ebffa39e29bfaec870de23f37704b926cbc712111db30bb",
    ("catboost", "INT+HIST+NOW"): "1126e55ae24648bbafd94c8708a820a357cd3412ac133d538d5e6881021f4529",
    ("extratrees", "INT+HIST+NOW"): "4c6959d5d889b8902033a5759a12e89a489ae383ca4ab4b3c5cb246f384c2dd6",
    ("dt", "INT"): "593a52d37a26d4b6173edcf7903627d6baf1bf4a78fd4bbc83459f3fb0e35662",
    ("xgb", "INT"): "97325134400f98f6c42f6f2fc74edc64ed40ad05a2dc19bd9c3a7ff8164127d5",
    ("catboost", "INT"): "74edd87ac664df8e3e2c126be251438aaa74c856936184eb73c494d8c374adaf",
    ("extratrees", "INT"): "4cb230cadf6c3166c75b256404e9d1bb88a5ee21a10d732ae7ae6d4fe6129fc5",
}
#: one rolling run on a 120-day market, with exact Shapley on a set outside the grid
RUN_BUNDLE_SHA256 = {
    "results.csv": "e2b7c25ccce235c487839d9f038b0b83a5d44e5f900685cd41979931b93a09b0",
    "results.json": "90f4d599fc9d206005b8c401746f52d491b2df9e863a4e9dbc2f3a33f881e7b1",
    "shap_m_op.csv": "97fc35433867fb24d24fd93b3a079fd4e007029fe01ef4468c4e1e0fceceb3c5",
}
RUN_SETTINGS = """\
input = m:m.csv
tasks = op
feature_sets = INT
classifiers = dt,gnb
eval_mode = rolling
refit_every = 5
shap_model = dt
shap_feature_set = INT+HIST+NOW
shap_rows = 2
shap_background = 32
out_dir = out
"""
MODEL_SPECS = {
    "dt": preset("dt"),
    "xgb": preset("xgb"),
    "gbt20": ClassifierSpec("GradientBoostedTrees", {"iterations": 20, "max_depth": 6, "learning_rate": 0.1}),
    "extratrees5": ClassifierSpec("ExtraTrees", {"n_trees": 5}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def market():
    """A paper-scale separable market: 1256 days, 1237 feature rows."""
    return generate(GenSpec(kind="separable", days=1256, seed=0, params={"signal_strength": 0.6}))


def test_design_matrix_bits(market):
    matrix = assemble(market)
    assert matrix.columns == CANONICAL_COLUMNS
    assert matrix.values.shape == (1237, 16)
    assert sha256(matrix.values.tobytes()) == VALUES_SHA256
    assert sha256(",".join(d.isoformat() for d in matrix.dates).encode("ascii")) == DATES_SHA256


def test_label_bits(market):
    matrix = assemble(market)
    first_index = len(market) - matrix.n_rows
    for task in ALL_TASKS:
        vector = make_labels(market, task, first_index)
        assert vector.labels.dtype.name == "int64"
        assert vector.dates == matrix.dates[:-1]
        assert sha256(vector.labels.tobytes()) == LABELS_SHA256[task.value], task.value


def op_dataset(market, feature_set: str):
    """Task op on one named feature set, and its 989-row training size."""
    full = assemble(market)
    labels = make_labels(market, TaskKind.OP_VS_OP, len(market) - full.n_rows)
    ds = bind(select(full, FeatureSetMask.from_name(feature_set)), labels, market.market)
    n_train = split(ds, 0.8).n_train
    assert n_train == 989
    return ds, n_train


def training_span(market, feature_set: str):
    """The 989-row training span of task op on one named feature set."""
    ds, n_train = op_dataset(market, feature_set)
    return ds.matrix.values[:n_train], ds.labels[:n_train], ds.matrix.columns


def test_tree_model_bits(market):
    X, y, columns = training_span(market, "INT+HIST+NOW")
    for name, spec in MODEL_SPECS.items():
        model = fit(spec, X, y, feature_names=columns)
        assert sha256(model_to_json(model).encode("utf-8")) == MODEL_SHA256[name], name


def test_tree_model_bits_on_four_columns(market):
    X, y, columns = training_span(market, "INT")
    assert X.shape == (989, 4)
    for name, digest in INT_MODEL_SHA256.items():
        model = fit(MODEL_SPECS[name], X, y, feature_names=columns)
        assert sha256(model_to_json(model).encode("utf-8")) == digest, name


def test_model_bits_of_every_state_kind(market):
    X, y, columns = training_span(market, "INT+HIST+NOW")
    specs = {
        "gnb": (preset("gnb"), y),
        "knn": (preset("knn"), y),
        "logreg": (preset("logreg"), y),
        "mlp16x8": (ClassifierSpec("MLP", {"hidden_layers": (16, 8), "max_epochs": 30}, standardize=True), y),
        "constant": (preset("logreg"), np.ones_like(y)),
        "gbt0": (ClassifierSpec("GradientBoostedTrees", {"iterations": 0}), y),
    }
    for name, (spec, labels) in specs.items():
        model = fit(spec, X, labels, feature_names=columns)
        assert sha256(model_to_json(model).encode("utf-8")) == STATE_MODEL_SHA256[name], name


def test_tree_model_bits_on_tied_values(market):
    X, y, columns = training_span(market, "INT+HIST+NOW")
    X = np.round(X, 2)
    specs = {
        "gbt30": ClassifierSpec("GradientBoostedTrees", {"iterations": 30, "max_depth": 6, "learning_rate": 0.1}),
        "dt16": ClassifierSpec("DecisionTree", {"max_features": 16}),  # every column at every node
        "dt": MODEL_SPECS["dt"],
    }
    for name, spec in specs.items():
        model = fit(spec, X, y, feature_names=columns)
        assert sha256(model_to_json(model).encode("utf-8")) == TIED_MODEL_SHA256[name], name


@pytest.mark.parametrize("name", list(EXTRA_TREES_SHA256))
def test_extra_trees_bits(market, name):
    X, y, columns = training_span(market, "INT" if name == "INT" else "INT+HIST+NOW")
    if name == "tied":
        X = np.round(X, 2)
    model = fit(ClassifierSpec("ExtraTrees", {"n_trees": 50}), X, y, feature_names=columns)
    assert sha256(model_to_json(model).encode("utf-8")) == EXTRA_TREES_SHA256[name], name


@pytest.mark.parametrize(("name", "feature_set"), [("dt", "INT+HIST+NOW"), ("logreg", "INT")])
def test_exact_shapley_bits(market, name, feature_set):
    X, y, columns = training_span(market, feature_set)
    model = fit(preset(name), X, y, feature_names=columns)
    background = background_sample(X, 128, seed=0)
    digest = hashlib.sha256()
    for i in (0, 988):
        row = shapley_exact(model, X[i], background)
        digest.update(row.phi.tobytes())
        digest.update(np.array([row.base_value, row.model_output]).tobytes())
    assert digest.hexdigest() == SHAPLEY_SHA256[name], name


@pytest.mark.parametrize("feature_set", list(KNN_SCORE_SHA256))
def test_knn_score_bits(market, feature_set):
    ds, n_train = op_dataset(market, feature_set)
    X = ds.matrix.values
    model = fit(preset("knn"), X[:n_train], ds.labels[:n_train], feature_names=ds.matrix.columns)
    scores = model.score(X[n_train:])
    assert scores.shape == (247,)
    assert sha256(scores.tobytes()) == KNN_SCORE_SHA256[feature_set], feature_set


@pytest.mark.parametrize(("name", "feature_set"), list(TREE_SUM_SCORE_SHA256))
def test_tree_sum_score_bits(market, name, feature_set):
    ds, n_train = op_dataset(market, feature_set)
    X = ds.matrix.values
    base = preset(name)
    spec = ClassifierSpec(base.family, {**base.hyperparams, **TREE_SUM_CUTS[name]}, base.standardize, base.seed)
    model = fit(spec, X[:n_train], ds.labels[:n_train], feature_names=ds.matrix.columns)
    scores = model.score(X[n_train:])
    assert scores.shape == (247,)
    assert sha256(scores.tobytes()) == TREE_SUM_SCORE_SHA256[name, feature_set], (name, feature_set)


@pytest.mark.parametrize(("name", "feature_set"), list(SAMPLED_SHAPLEY_SHA256))
def test_sampled_shapley_bits(market, name, feature_set):
    ds, n_train = op_dataset(market, feature_set)
    X = ds.matrix.values
    base = preset(name)
    spec = ClassifierSpec(base.family, {**base.hyperparams, **TREE_SUM_CUTS.get(name, {})}, base.standardize, base.seed)
    model = fit(spec, X[:n_train], ds.labels[:n_train], feature_names=ds.matrix.columns)
    background = background_sample(X[:n_train], 128, seed=0)
    digest = hashlib.sha256()
    for i, x in enumerate(X[n_train : n_train + 2]):
        row = shapley_sampled(model, x, background, n_permutations=20, seed=i)
        digest.update(row.phi.tobytes())
        digest.update(np.array([row.base_value, row.model_output]).tobytes())
    assert digest.hexdigest() == SAMPLED_SHAPLEY_SHA256[name, feature_set], (name, feature_set)


def test_run_bundle_bits(tmp_path, monkeypatch):
    # relative paths keep the temp directory out of the config hash the bundle records
    monkeypatch.chdir(tmp_path)
    market = generate(GenSpec(kind="separable", days=120, seed=4, params={"signal_strength": 0.6}))
    (tmp_path / "m.csv").write_text(serialize_csv(market), encoding="utf-8")
    outcome = cmd_run(load_config(RUN_SETTINGS))
    assert not outcome.errors
    digests = {Path(path).name: sha256(Path(path).read_bytes()) for path in outcome.written}
    assert digests == RUN_BUNDLE_SHA256
