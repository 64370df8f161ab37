"""Shared learner contract: specs, standardization, fitted models, serialization.

Every classifier family registers a fit function and a fitted-state type
here and is used exclusively through ``fit``/``predict``.  Fitting is
deterministic given ``ClassifierSpec.seed``; predictions threshold the model score
(an estimate of P(y=1)) at 0.5, with ties going to class 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

MODEL_FORMAT_VERSION = 1

_FAMILIES: dict[str, "_FamilyEntry"] = {}
_STATE_TYPES: dict[str, type] = {}


@dataclass(frozen=True)
class _FamilyEntry:
    fit: Callable[[np.ndarray, np.ndarray, dict[str, Any], int], Any]
    defaults: dict[str, Any]
    validators: dict[str, Callable[[Any], bool]]


def register_family(name: str, fit_fn, defaults: dict, validators: dict, state_cls: type) -> None:
    """Called once at import time by each family module."""
    _FAMILIES[name] = _FamilyEntry(fit=fit_fn, defaults=defaults, validators=validators)
    _STATE_TYPES[state_cls.kind] = state_cls


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def positive_int(v) -> bool:
    """Hyperparameter validator: an int (not a bool) of at least 1."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


# ---------------------------------------------------------------------------
# numerics shared across families
# ---------------------------------------------------------------------------


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) without overflow."""
    return np.logaddexp(0.0, z)


# ---------------------------------------------------------------------------
# spec and standardizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassifierSpec:
    """A classifier family plus hyperparameters, scaling choice, and seed."""

    family: str
    hyperparams: Mapping[str, Any] = field(default_factory=dict)
    standardize: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Column-wise z-scoring fitted on training rows only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_data(cls, X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)  # constant columns pass through centered
        return cls(mean=mean, std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


@dataclass(eq=False)
class ConstantState:
    """Degenerate model produced when training labels contain a single class."""

    kind = "constant"
    label: int

    def score(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], float(self.label))

    def to_dict(self) -> dict:
        return {"label": int(self.label)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConstantState":
        return cls(label=int(d["label"]))


_STATE_TYPES[ConstantState.kind] = ConstantState


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A fitted classifier bound to the feature columns it was trained on."""

    spec: ClassifierSpec
    hyperparams: dict[str, Any]
    feature_names: tuple[str, ...]
    standardizer: Standardizer | None
    state: Any

    def score(self, X) -> np.ndarray:
        """Pre-threshold scores in [0, 1]: the model's estimate of P(y=1)."""
        values = _check_inputs(X, self.feature_names)
        if self.standardizer is not None:
            values = self.standardizer.transform(values)
        return self.state.score(values)

    def predict(self, X) -> np.ndarray:
        return (self.score(X) >= 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# fit / predict
# ---------------------------------------------------------------------------


def fit(spec: ClassifierSpec, X, y, feature_names: tuple[str, ...] | None = None) -> TrainedModel:
    """Train one model.  X may be a FeatureMatrix or a 2-D float array."""
    values, names = _coerce_matrix(X, feature_names)
    labels = _coerce_labels(y, values.shape[0])
    if spec.family not in _FAMILIES:
        raise ValueError(f"unknown classifier family {spec.family!r} (known: {family_names()})")
    entry = _FAMILIES[spec.family]
    hyper = _resolve_hyperparams(spec, entry)

    standardizer = Standardizer.from_data(values) if spec.standardize else None
    train = standardizer.transform(values) if standardizer is not None else values

    classes = np.unique(labels)
    if classes.size == 1:
        state: Any = ConstantState(label=int(classes[0]))
    else:
        state = entry.fit(train, labels.astype(np.float64), hyper, spec.seed)
    return TrainedModel(
        spec=spec,
        hyperparams=hyper,
        feature_names=names,
        standardizer=standardizer,
        state=state,
    )


def predict(model: TrainedModel, X) -> np.ndarray:
    """0/1 predictions; score >= 0.5 means class 1."""
    return model.predict(X)


def _resolve_hyperparams(spec: ClassifierSpec, entry: _FamilyEntry) -> dict[str, Any]:
    hyper = dict(entry.defaults)
    for key, value in dict(spec.hyperparams).items():
        if key not in entry.defaults:
            raise ValueError(
                f"unknown hyperparameter {key!r} for {spec.family} "
                f"(known: {tuple(sorted(entry.defaults))})"
            )
        hyper[key] = value
    for key, ok in entry.validators.items():
        if not ok(hyper[key]):
            raise ValueError(f"invalid value for {spec.family} hyperparameter {key!r}: {hyper[key]!r}")
    return hyper


def _coerce_matrix(X, feature_names) -> tuple[np.ndarray, tuple[str, ...]]:
    columns = getattr(X, "columns", None)
    values = getattr(X, "values", X)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value in input matrix")
    if columns is not None:
        names = tuple(columns)
    elif feature_names is not None:
        names = tuple(feature_names)
    else:
        names = tuple(f"f{j}" for j in range(values.shape[1]))
    if len(names) != values.shape[1]:
        raise ValueError(f"{len(names)} column names for {values.shape[1]} columns")
    return values, names


def _coerce_labels(y, n_rows: int) -> np.ndarray:
    labels = np.asarray(getattr(y, "labels", y))
    if labels.ndim != 1 or labels.size != n_rows:
        raise ValueError(f"expected {n_rows} labels, got shape {labels.shape}")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return labels.astype(np.int64)


def _check_inputs(X, feature_names: tuple[str, ...]) -> np.ndarray:
    columns = getattr(X, "columns", None)
    values = np.asarray(getattr(X, "values", X), dtype=np.float64)
    if values.ndim == 1:
        raise ValueError("expected a 2-D matrix; reshape single rows to (1, d)")
    if columns is not None and tuple(columns) != tuple(feature_names):
        raise ValueError(
            f"column mismatch: model was trained on {tuple(feature_names)}, got {tuple(columns)}"
        )
    if values.shape[1] != len(feature_names):
        raise ValueError(
            f"expected {len(feature_names)} columns ({feature_names}), got {values.shape[1]}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value in prediction input")
    return values


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_json(model: TrainedModel) -> str:
    """Serialize a fitted model to a versioned JSON blob."""
    blob = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": {
            "family": model.spec.family,
            "hyperparams": _jsonable(dict(model.spec.hyperparams)),
            "standardize": model.spec.standardize,
            "seed": model.spec.seed,
        },
        "hyperparams": _jsonable(model.hyperparams),
        "feature_names": list(model.feature_names),
        "standardizer": None
        if model.standardizer is None
        else {"mean": model.standardizer.mean.tolist(), "std": model.standardizer.std.tolist()},
        "state": {"kind": model.state.kind, **model.state.to_dict()},
    }
    return json.dumps(blob, sort_keys=True)


def model_from_json(text: str) -> TrainedModel:
    """Rebuild a fitted model; rejects blobs from other format versions."""
    blob = json.loads(text)
    version = blob.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r} (expected {MODEL_FORMAT_VERSION})")
    state_blob = dict(blob["state"])
    kind = state_blob.pop("kind")
    if kind not in _STATE_TYPES:
        raise ValueError(f"unknown model state kind {kind!r}")
    spec = ClassifierSpec(
        family=blob["spec"]["family"],
        hyperparams=_tuplify(blob["spec"]["hyperparams"]),
        standardize=blob["spec"]["standardize"],
        seed=blob["spec"]["seed"],
    )
    standardizer = None
    if blob["standardizer"] is not None:
        standardizer = Standardizer(
            mean=np.array(blob["standardizer"]["mean"], dtype=np.float64),
            std=np.array(blob["standardizer"]["std"], dtype=np.float64),
        )
    return TrainedModel(
        spec=spec,
        hyperparams=_tuplify(blob["hyperparams"]),
        feature_names=tuple(blob["feature_names"]),
        standardizer=standardizer,
        state=_STATE_TYPES[kind].from_dict(state_blob),
    )


def _jsonable(d: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}


def _tuplify(d: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
