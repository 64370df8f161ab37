"""Shapley attribution of model scores with an interventional value function.

The value of a coalition S for row x is the mean model score over a fixed
background sample whose columns in S are overwritten with x's values.
``shapley_exact`` enumerates all 2^d coalitions (refusing d > 20);
``shapley_sampled`` walks seeded random feature orderings instead, which
keeps the efficiency identity (contributions along one ordering telescope)
while trading exactness for speed.  Attribution targets the pre-threshold
score, never the 0/1 decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_EXACT_FEATURES = 20
DEFAULT_BACKGROUND_SIZE = 128
DEFAULT_ROW_SUBSAMPLE = 100
_COALITION_CHUNK = 2048

SHAP_EXACT = "exact"
SHAP_SAMPLED = "sampled"


@dataclass(frozen=True, eq=False)
class AttributionRow:
    """Per-feature contributions for one attributed row."""

    phi: np.ndarray
    base_value: float
    model_output: float

    @property
    def efficiency_residual(self) -> float:
        return abs(self.model_output - self.base_value - float(self.phi.sum()))


@dataclass(frozen=True, eq=False)
class ShapleyReport:
    """Attributions for a set of rows plus aggregate importance."""

    feature_names: tuple[str, ...]
    rows: tuple[AttributionRow, ...]
    global_importance: np.ndarray
    mode: str
    background_size: int

    def ranking(self) -> tuple[str, ...]:
        """Feature names sorted by importance, descending (index breaks ties)."""
        order = sorted(range(len(self.feature_names)), key=lambda j: (-self.global_importance[j], j))
        return tuple(self.feature_names[j] for j in order)


def _score_fn(model):
    score = getattr(model, "score", None)
    if score is None:
        raise ValueError("model must expose a score(X) method")
    return score


def _as_row(x) -> np.ndarray:
    row = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(row)):
        raise ValueError("non-finite value in attributed row")
    return row


def _as_background(background, d: int) -> np.ndarray:
    bg = np.asarray(background, dtype=np.float64)
    if bg.ndim != 2 or bg.shape[0] < 1 or bg.shape[1] != d:
        raise ValueError(f"background must be a non-empty matrix with {d} columns, got {bg.shape}")
    if not np.all(np.isfinite(bg)):
        raise ValueError("non-finite value in background sample")
    return bg


def _coalition_values(score, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """v(S) for every bitmask S, batching hybrid rows through the scorer."""
    d = x.size
    n_bg = background.shape[0]
    values = np.empty(2**d)
    masks = np.arange(2**d, dtype=np.uint32)
    for start in range(0, 2**d, _COALITION_CHUNK):
        chunk = masks[start : start + _COALITION_CHUNK]
        on = ((chunk[:, None] >> np.arange(d, dtype=np.uint32)) & 1).astype(bool)
        hybrids = np.where(on[:, None, :], x[None, None, :], background[None, :, :])
        scores = np.asarray(score(hybrids.reshape(-1, d)), dtype=np.float64)
        values[start : start + len(chunk)] = scores.reshape(len(chunk), n_bg).mean(axis=1)
    return values


def shapley_exact(model, x, background) -> AttributionRow:
    """Exact Shapley values by full coalition enumeration (d <= 20)."""
    row = _as_row(x)
    d = row.size
    if d > MAX_EXACT_FEATURES:
        raise ValueError(f"exact enumeration limited to {MAX_EXACT_FEATURES} features, got {d}")
    bg = _as_background(background, d)
    score = _score_fn(model)
    values = _coalition_values(score, row, bg)

    masks = np.arange(2**d, dtype=np.uint64)
    sizes = np.zeros(2**d, dtype=np.int64)
    for j in range(d):
        sizes += ((masks >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
    d_fact = math.factorial(d)
    weight_by_size = np.array(
        [math.factorial(s) * math.factorial(d - s - 1) / d_fact for s in range(d)]
    )
    phi = np.empty(d)
    for j in range(d):
        bit = np.uint64(1 << j)
        without = masks[(masks & bit) == 0]
        with_j = without | bit
        phi[j] = float(
            np.sum(weight_by_size[sizes[without]] * (values[with_j.astype(np.int64)] - values[without.astype(np.int64)]))
        )
    out = float(np.asarray(score(row.reshape(1, -1)), dtype=np.float64)[0])
    return AttributionRow(phi=phi, base_value=float(values[0]), model_output=out)


def shapley_sampled(model, x, background, n_permutations: int = 200, seed: int = 0) -> AttributionRow:
    """Monte-Carlo Shapley: average marginal contributions over seeded orderings."""
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    row = _as_row(x)
    d = row.size
    bg = _as_background(background, d)
    score = _score_fn(model)
    rng = np.random.default_rng(seed)

    base_value = float(np.asarray(score(bg), dtype=np.float64).mean())
    phi = np.zeros(d)
    for _ in range(n_permutations):
        order = rng.permutation(d)
        hybrid = bg.copy()
        prev = base_value
        for j in order:
            hybrid[:, j] = row[j]
            cur = float(np.asarray(score(hybrid), dtype=np.float64).mean())
            phi[j] += cur - prev
            prev = cur
    phi /= n_permutations
    out = float(np.asarray(score(row.reshape(1, -1)), dtype=np.float64)[0])
    return AttributionRow(phi=phi, base_value=base_value, model_output=out)


def global_importance(
    model,
    rows,
    background,
    feature_names: tuple[str, ...],
    mode: str = SHAP_EXACT,
    n_permutations: int = 200,
    seed: int = 0,
) -> ShapleyReport:
    """Mean |phi| per feature over a set of rows."""
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError(f"rows must be a non-empty matrix, got shape {matrix.shape}")
    if len(feature_names) != matrix.shape[1]:
        raise ValueError(f"{len(feature_names)} names for {matrix.shape[1]} columns")
    if mode not in (SHAP_EXACT, SHAP_SAMPLED):
        raise ValueError(f"unknown attribution mode {mode!r}")
    bg = _as_background(background, matrix.shape[1])
    attributed: list[AttributionRow] = []
    for i in range(matrix.shape[0]):
        if mode == SHAP_EXACT:
            attributed.append(shapley_exact(model, matrix[i], bg))
        else:
            attributed.append(shapley_sampled(model, matrix[i], bg, n_permutations=n_permutations, seed=seed + i))
    importance = np.mean(np.abs(np.vstack([a.phi for a in attributed])), axis=0)
    return ShapleyReport(
        feature_names=tuple(feature_names),
        rows=tuple(attributed),
        global_importance=importance,
        mode=mode,
        background_size=bg.shape[0],
    )


def background_sample(train_rows: np.ndarray, max_rows: int = DEFAULT_BACKGROUND_SIZE, seed: int = 0) -> np.ndarray:
    """Seeded without-replacement background draw from the training rows."""
    train = np.asarray(train_rows, dtype=np.float64)
    if train.shape[0] <= max_rows:
        return train.copy()
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(train.shape[0], size=max_rows, replace=False))
    return train[picked]


def row_subsample(test_rows: np.ndarray, max_rows: int = DEFAULT_ROW_SUBSAMPLE, seed: int = 0) -> np.ndarray:
    """Seeded without-replacement choice of rows to attribute, order preserved."""
    test = np.asarray(test_rows, dtype=np.float64)
    if test.shape[0] <= max_rows:
        return np.arange(test.shape[0])
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(test.shape[0], size=max_rows, replace=False))
