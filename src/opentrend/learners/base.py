"""Shared learner contract: specs, standardization, fitted models, serialization.

Every classifier family registers a fit function and a fitted-state type
here and is used exclusively through ``fit``/``predict``.  Fitting is
deterministic given ``ClassifierSpec.seed``; predictions threshold the model score
(an estimate of P(y=1)) at 0.5, with ties going to class 1.

A model's JSON is its dataclass fields, a state's included: arrays become
nested lists and every field is read back by its annotation, so a family
gets serialization by declaring its fields with types (``np.ndarray``,
``list[...]``, a nested dataclass or a scalar).  After decoding, every
dataclass in the model that has ``check_columns`` checks itself against
the model's column count.  A tree-shaped state is a ``TreeSum``, scored by
evaluating the sum of trees it states.  One walk scores all of a sum's
trees: the rows go in blocks of at most ``_WALK_ENTRIES`` (tree, row)
entries, each entry steps down its tree a level at a time, and the leaf
values are added tree by tree in the order scoring one tree at a time adds
them, so the bits are those of that scoring.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, get_args, get_origin, get_type_hints

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


def positive_number(v) -> bool:
    """Hyperparameter validator: an int or float (not a bool) above 0."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0


# ---------------------------------------------------------------------------
# numerics shared across families
# ---------------------------------------------------------------------------


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # never overflows
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)


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
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


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

    def check_columns(self, n_columns: int) -> None:
        """Refuse a mean or std not of shape (n_columns,), or a std that is not > 0."""
        if self.mean.shape != (n_columns,) or self.std.shape != (n_columns,):
            raise ValueError(f"mean and std must have shape ({n_columns},), got {self.mean.shape} and {self.std.shape}")
        if not np.all(self.std > 0):
            raise ValueError("std must be > 0")


#: (tree, row) entries one block of ``TreeSum.score``'s walk holds at most: each
#: int64 array over them is 512 KiB
_WALK_ENTRIES = 1 << 16


class TreeSum:
    """A state whose ``tree_sum()``, ``(start, weight, trees, link)``, is its score.

    The score is ``link(start + sum of weight * tree.apply(X))``, the trees
    added in list order, a link of None meaning none.  ``score`` gets every
    tree's leaf values from one walk of all the trees per block of rows, not
    from one ``apply`` per tree.  ``explain`` runs ``evaluate`` on a tree's
    own leaf values, so its leaf scores have these bits.
    """

    def score(self, X: np.ndarray) -> np.ndarray:
        """The sum of trees on X's rows, from one walk of all the trees per block of rows.

        The trees' node arrays are joined, each tree's child ids shifted by
        its root's.  A block of rows gives every (tree, row) pair an entry at
        the tree's root and steps the entries not yet at a leaf down one
        level at a time, as ``TreeArrays.apply`` steps one tree's rows.
        ``evaluate`` then adds the block's (trees, rows) leaf values tree by
        tree, so each row gets the adds, in the order, of scoring one tree at
        a time.  A block has at most ``_WALK_ENTRIES`` entries (and at least
        one row), so memory does not grow with trees times rows.  A sum of
        at most one tree has nothing to join: its tree's ``apply`` walks it.
        """
        form = self.tree_sum()
        trees = form[2]
        if len(trees) <= 1:
            return TreeSum.evaluate(form, (tree.apply(X) for tree in trees), X.shape[0])
        roots, feature, threshold, left, right, value = _joined(trees)
        n, d = X.shape
        rows = max(1, _WALK_ENTRIES // len(trees))
        out = np.empty(n)
        for start in range(0, n, rows):
            flat = X[start : start + rows].ravel()
            b = flat.size // d
            node = np.repeat(roots, b)  # entry t * b + r: tree t's node on the block's row r
            at = np.tile(np.arange(0, b * d, d), len(trees))  # each entry's row in flat
            active = np.nonzero(feature.take(node) >= 0)[0]
            while active.size:
                cur = node.take(active)
                go_left = flat.take(at.take(active) + feature.take(cur)) <= threshold.take(cur)
                step = np.where(go_left, left.take(cur), right.take(cur))
                node[active] = step
                active = active[feature.take(step) >= 0]
            out[start : start + b] = TreeSum.evaluate(form, value.take(node).reshape(len(trees), b), b)
        return out

    @staticmethod
    def evaluate(tree_sum, leaf_values, n: int) -> np.ndarray:
        """``tree_sum`` over n rows: start, plus weight times each tree's n leaf values in ``leaf_values`` in turn, then link."""
        start, weight, _, link = tree_sum
        z = np.full(n, float(start))
        for values in leaf_values:
            z += weight * values
        return z if link is None else link(z)


def _joined(trees) -> tuple[np.ndarray, ...]:
    """The trees' root ids and their node arrays laid end to end, each tree's child ids shifted by its root's id."""
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0, *sizes[:-1]])
    feature, threshold, left, right, value = map(
        np.concatenate, zip(*((tree.feature, tree.threshold, tree.left, tree.right, tree.value) for tree in trees))
    )
    shift = np.repeat(roots, sizes)  # a leaf's -1 children shift too, but are never followed
    left += shift
    right += shift
    return roots, feature, threshold, left, right, value


@dataclass(eq=False)
class ConstantState(TreeSum):
    """Degenerate model produced when training labels contain a single class."""

    kind = "constant"
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")

    def tree_sum(self):
        """One single-leaf tree holding the label."""
        from opentrend.learners.trees import TreeArrays  # the trees module imports this one

        leaf = np.array([-1])
        return 0.0, 1.0, [TreeArrays(leaf, np.zeros(1), leaf, leaf, np.array([float(self.label)]))], None


_STATE_TYPES[ConstantState.kind] = ConstantState


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A fitted classifier bound to the feature columns it was trained on."""

    spec: ClassifierSpec
    hyperparams: dict[str, Any]
    feature_names: tuple[str, ...]
    standardizer: Standardizer | None
    state: Any

    def __post_init__(self) -> None:
        """Refuse fields that disagree, as they may in edited model JSON: fit and load share these rules."""
        if type(self.state) not in _STATE_TYPES.values():
            raise ValueError(f"state must be a registered model state, got a {type(self.state).__name__}")
        resolved = _resolve_hyperparams(self.spec)
        if _json(self.hyperparams) != _json(resolved):
            raise ValueError(f"hyperparams {self.hyperparams!r} are not the spec's resolved {resolved!r}")
        for f in fields(self.state):  # a state field named after a hyperparameter copies it
            value = getattr(self.state, f.name)
            if f.name in resolved and value != resolved[f.name]:
                raise ValueError(f"state {f.name} {value!r} is not the hyperparameter's {resolved[f.name]!r}")
        if (self.standardizer is None) == self.spec.standardize:
            have = "no" if self.standardizer is None else "a"
            raise ValueError(f"spec.standardize is {self.spec.standardize} but the model has {have} standardizer")
        if not self.feature_names:
            raise ValueError("a model needs at least one feature column, got no feature names")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError(f"feature names must be distinct, got {self.feature_names}")

    def score(self, X) -> np.ndarray:
        """Pre-threshold scores in [0, 1]: the model's estimate of P(y=1)."""
        values = _check_inputs(X, self.feature_names)
        if self.standardizer is not None:
            values = self.standardizer.transform(values)
        return self.state.score(values)

    def scaled_tree_sum(self, x, background):
        """The state's sum of trees with x and the background as ``score`` scales them, or None when it has none.

        A tree-shaped state (a tree, a boosted or randomized ensemble, a
        constant) is a ``TreeSum``.  Returns its ``tree_sum()``, x and the
        background; ``explain`` builds its Shapley tables from them.
        Standardizing maps each column on its own, so a hybrid of the scaled
        rows is the scaled hybrid.
        """
        if not isinstance(self.state, TreeSum):
            return None
        x = np.asarray(x, dtype=np.float64)
        background = _check_inputs(background, self.feature_names)
        if self.standardizer is not None:
            x, background = self.standardizer.transform(x), self.standardizer.transform(background)
        return self.state.tree_sum(), x, background

    def predict(self, X) -> np.ndarray:
        return (self.score(X) >= 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# fit / predict
# ---------------------------------------------------------------------------


def fit(spec: ClassifierSpec, X, y, feature_names: tuple[str, ...] | None = None) -> TrainedModel:
    """Train one model.  X may be a FeatureMatrix or a 2-D float array."""
    values, names = _coerce_matrix(X, feature_names)
    labels = _coerce_labels(y, values.shape[0])
    hyper = _resolve_hyperparams(spec)

    standardizer = Standardizer.from_data(values) if spec.standardize else None
    train = standardizer.transform(values) if standardizer is not None else values

    classes = np.unique(labels)
    if classes.size == 1:
        state: Any = ConstantState(label=int(classes[0]))
    else:
        state = _FAMILIES[spec.family].fit(train, labels.astype(np.float64), hyper, spec.seed)
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


def _resolve_hyperparams(spec: ClassifierSpec) -> dict[str, Any]:
    """The family's defaults updated by the spec's hyperparameters; refuses an unknown family, key or value."""
    if spec.family not in _FAMILIES:
        raise ValueError(f"unknown classifier family {spec.family!r} (known: {family_names()})")
    entry = _FAMILIES[spec.family]
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
    """Serialize a fitted model to a versioned JSON blob of its fields."""
    return json.dumps({"format_version": MODEL_FORMAT_VERSION, **_encode(model)}, sort_keys=True)


def _json(value) -> str:
    """``value`` as model JSON writes it, for comparisons that must not treat true as 1."""
    return json.dumps(_encode(value), sort_keys=True)


def model_from_json(text: str) -> TrainedModel:
    """Rebuild a fitted model; rejects blobs from other format versions and blobs that cannot score."""
    blob = json.loads(text)
    version = blob.get("format_version") if isinstance(blob, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r} (expected {MODEL_FORMAT_VERSION})")
    model = _decode(TrainedModel, {key: value for key, value in blob.items() if key != "format_version"}, "model")
    _check_columns(model, len(model.feature_names), "model")
    return model


def _encode(value):
    """Arrays and tuples to lists, lists and mappings item by item, a dataclass to a dict of its fields (and kind)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _encode(item) for key, item in value.items()}
    if is_dataclass(value):
        kind = {"kind": value.kind} if hasattr(value, "kind") else {}
        return {**kind, **{f.name: _encode(getattr(value, f.name)) for f in fields(value)}}
    return value


#: the JSON scalar types a field annotation accepts, where more than its own
_JSON_KINDS = {float: (int, float)}


def _decode(tp, value, where: str):
    """Inverse of ``_encode``, driven by the annotation ``tp``.

    ``np.array`` restores the dtype because the writer emits ints for
    integer arrays and floats for float arrays.  A scalar must already be of
    its field's kind (an int may stand for a float, a bool is no int), so a
    blob's ``"k": 2.7`` or ``"bias": "nan"`` is refused, not coerced.  An
    ``Any`` dict is a state of its ``kind``; other ``Any`` values are
    hyperparameters, lists read as tuples.  Errors are labelled ``where``
    plus the model's field name and a state's kind ("model state 'mlp'").
    """
    if tp is Any:
        if not isinstance(value, dict):
            return tuple(value) if isinstance(value, list) else value
        kind = value.get("kind")
        if kind not in _STATE_TYPES:
            raise ValueError(f"unknown model state kind {kind!r}")
        return _decode(_STATE_TYPES[kind], {key: item for key, item in value.items() if key != "kind"}, f"{where} {kind!r}")
    if tp is np.ndarray:  # ints and floats only: no strings, bools, nulls or ragged rows
        kinds = {type(item) for item in np.array(value, dtype=object).flat} - {int, float}
        if kinds:
            raise ValueError(f"{where}: array items must be numbers, got {', '.join(sorted(k.__name__ for k in kinds))}")
        array = np.array(value)
        if array.dtype.kind not in "if" or not np.isfinite(array).all():
            raise ValueError(f"{where}: array items must be finite 64-bit numbers")
        return array
    origin, args = get_origin(tp), get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _decode(args[0], value, where)
    if origin in (list, tuple):  # list[T] or tuple[T, ...]
        _check_kind(value, list, where)
        items = [_decode(args[0], item, where) for item in value]
        return items if origin is list else tuple(items)
    if origin in (dict, Mapping):  # string keys, as JSON objects have
        _check_kind(value, dict, where)
        return {key: _decode(args[1], item, where) for key, item in value.items()}
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        names = [f.name for f in fields(tp)]
        _check_keys(value, names, where)
        decoded = {key: _decode(hints[key], value[key], f"{where} {key}" if tp is TrainedModel else where) for key in names}
        try:
            return tp(**decoded)
        except ValueError as err:  # the dataclass refused its fields
            raise ValueError(f"{where}: {err}") from None
    _check_kind(value, tp, where)
    if tp is float and not -sys.float_info.max <= value <= sys.float_info.max:  # int comparisons cannot overflow
        raise ValueError(f"{where}: expected a finite float, got {value!r}")
    return tp(value)


def _check_kind(value, tp: type, where: str) -> None:
    """Refuse a JSON value that is not of type ``tp`` (or one ``_JSON_KINDS`` lets stand for it)."""
    if type(value) not in _JSON_KINDS.get(tp, (tp,)):
        raise ValueError(f"{where}: expected {tp.__name__}, got {value!r}")


def _check_keys(value: dict, names: list[str], where: str) -> None:
    """Refuse a JSON value that is not an object with exactly the keys ``names``."""
    _check_kind(value, dict, where)
    for key in names:
        if key not in value:
            raise ValueError(f"{where}: missing key {key!r}")
    for key in value:
        if key not in names:
            raise ValueError(f"{where}: unknown key {key!r}")


def _check_columns(value, n_columns: int, where: str) -> None:
    """Call ``check_columns(n_columns)`` on every dataclass reached through fields and lists, labelled as ``_decode``."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_columns(item, n_columns, where)
    elif is_dataclass(value):
        where = f"{where} {value.kind!r}" if hasattr(value, "kind") else where
        check = getattr(value, "check_columns", None)
        if check is not None:
            try:
                check(n_columns)
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
        for f in fields(value):
            inner = f"{where} {f.name}" if isinstance(value, TrainedModel) else where
            _check_columns(getattr(value, f.name), n_columns, inner)
