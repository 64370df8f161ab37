"""Binding features to labels and evaluating with leak-free splits.

The final feature row of a series has no next open, so binding drops it;
a series of ``days`` bars with a 20-day window therefore yields
``days - 20`` labeled points.  Splits are chronological: a contiguous train
prefix and test suffix, with n_train = ceil(ratio * n_points).  Evaluation
is either a single static fit or a rolling one-step walk forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from opentrend.features import FeatureMatrix
from opentrend.labeling import LabelVector, TaskKind
from opentrend.learners import ClassifierSpec, fit, predict
from opentrend.learners.base import positive_int

DEFAULT_SPLIT_RATIO = 0.8
STATIC_SPLIT = "static"
ROLLING_ONE_STEP = "rolling"


@dataclass(frozen=True)
class EvalMode:
    """How test predictions are produced.

    ``static``: one fit on the train prefix, predict the whole test suffix.
    ``rolling``: walk the test suffix one day at a time, refitting every
    ``refit_every`` steps on all rows before the current day (expanding
    window), or on a window frozen to the original train length when
    ``freeze_window`` is set.
    """

    kind: str = STATIC_SPLIT
    refit_every: int = 1
    freeze_window: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (STATIC_SPLIT, ROLLING_ONE_STEP):
            raise ValueError(f"unknown eval mode {self.kind!r}")
        if not positive_int(self.refit_every):
            raise ValueError(f"refit_every must be an integer >= 1, got {self.refit_every!r}")
        if not isinstance(self.freeze_window, bool):  # a truthy "no" would freeze the window
            raise ValueError(f"freeze_window must be a bool, got {self.freeze_window!r}")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature rows paired with one task's labels for one market."""

    market: str
    task: TaskKind
    matrix: FeatureMatrix
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.n_rows != len(self.labels):
            raise ValueError(
                f"matrix has {self.matrix.n_rows} rows but labels have {len(self.labels)}"
            )

    @property
    def n_points(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Split:
    """Chronological train prefix / test suffix."""

    n_points: int
    n_train: int

    def __post_init__(self) -> None:
        if not (0 < self.n_train < self.n_points):
            raise ValueError(
                f"degenerate split: n_train={self.n_train} of n_points={self.n_points}"
            )

    @property
    def n_test(self) -> int:
        return self.n_points - self.n_train

    @property
    def test_indices(self) -> range:
        return range(self.n_train, self.n_points)


def bind(matrix: FeatureMatrix, labels: LabelVector, market: str) -> LabeledDataset:
    """Pair feature rows with labels, dropping the final unlabeled row."""
    if matrix.n_rows != len(labels) + 1:
        raise ValueError(
            f"alignment error: {matrix.n_rows} feature rows need {matrix.n_rows - 1} labels, "
            f"got {len(labels)}"
        )
    if matrix.dates[:-1] != labels.dates:
        raise ValueError("feature row dates and label dates disagree")
    trimmed = FeatureMatrix(
        dates=matrix.dates[:-1],
        columns=matrix.columns,
        values=matrix.values[:-1].copy(),
    )
    return LabeledDataset(
        market=market,
        task=labels.task,
        matrix=trimmed,
        labels=labels.labels.copy(),
    )


def split(ds: LabeledDataset, ratio: float = DEFAULT_SPLIT_RATIO) -> Split:
    """n_train = ceil(ratio * n_points), test = the rest; both must be non-empty.

    The product is taken in exact rational arithmetic (``train_fraction``)
    so that e.g. ratio 0.8 of 10 points is exactly 8, immune to float
    round-up.
    """
    n_train = math.ceil(train_fraction(ratio) * ds.n_points)
    return Split(n_points=ds.n_points, n_train=n_train)


def train_fraction(ratio: float) -> Fraction:
    """The train share of a split: the decimal ``ratio`` as an exact fraction; it must be in (0, 1)."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"split ratio must be in (0, 1), got {ratio!r}")
    return Fraction(str(ratio))


def rolling_predict(
    ds: LabeledDataset,
    sp: Split,
    learner: ClassifierSpec,
    mode: EvalMode | None = None,
) -> np.ndarray:
    """Predict every test index without ever fitting on it or anything after it.

    Returns the 0/1 predictions for ds rows n_train .. n_points-1 in order.
    Deterministic given ``learner.seed``.
    """
    mode = mode or EvalMode()
    if sp.n_points != ds.n_points:
        raise ValueError("split does not belong to this dataset")
    X = ds.matrix.values
    y = ds.labels
    columns = ds.matrix.columns

    if mode.kind == STATIC_SPLIT:
        model = _fit_window(learner, X, y, columns, 0, sp.n_train)
        return predict(model, X[sp.n_train :])

    predictions = np.empty(sp.n_test, dtype=np.int64)
    model = None
    for step, t in enumerate(sp.test_indices):
        if model is None or step % mode.refit_every == 0:
            start = max(0, t - sp.n_train) if mode.freeze_window else 0
            model = _fit_window(learner, X, y, columns, start, t)
        predictions[step] = predict(model, X[t : t + 1])[0]
    return predictions


def _fit_window(spec, X, y, columns, start, stop):
    try:
        return fit(spec, X[start:stop], y[start:stop], feature_names=columns)
    except Exception as exc:
        raise RuntimeError(f"learner fit failed on window [{start}, {stop}): {exc}") from exc
