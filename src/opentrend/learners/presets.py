"""The eight named classifier configurations used in reports.

``xgb`` and ``catboost`` are both served by the same from-scratch gradient
boosting implementation with two hyperparameter presets; their report
labels carry a trailing ``*`` to flag that substitution.  Scaling is on for
the distance/gradient learners (knn, logreg, mlp) and off for trees and
naive Bayes, which are invariant or close to it.
"""

from __future__ import annotations

from opentrend.learners.base import ClassifierSpec

_PRESETS: dict[str, tuple[str, dict, bool]] = {
    "dt": ("DecisionTree", {"max_depth": 10, "max_features": 5}, False),
    "gnb": ("GaussianNB", {}, False),
    "knn": ("KNearest", {"k": 5}, True),
    "logreg": ("LogisticRegression", {"l2": 1.0, "tol": 1e-6, "max_iter": 1000}, True),
    "xgb": ("GradientBoostedTrees", {"iterations": 100, "max_depth": 6, "learning_rate": 0.3}, False),
    "mlp": ("MLP", {"hidden_layers": (128, 64, 32, 32, 16, 16, 8, 8)}, True),
    "catboost": ("GradientBoostedTrees", {"iterations": 1000, "max_depth": 6, "learning_rate": 0.1}, False),
    "extratrees": ("ExtraTrees", {"n_trees": 1000}, False),
}

PRESET_NAMES = tuple(_PRESETS)

#: how each preset appears in results files and charts
REPORT_LABELS = {name: (name + "*" if name in ("xgb", "catboost") else name) for name in PRESET_NAMES}


def preset(name: str, seed: int = 0) -> ClassifierSpec:
    """Build the ClassifierSpec for one named configuration; names are exact (``dt``, not ``DT``)."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r} (known: {PRESET_NAMES})")
    family, hyper, standardize = _PRESETS[name]
    return ClassifierSpec(family=family, hyperparams=dict(hyper), standardize=standardize, seed=seed)
