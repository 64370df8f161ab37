"""Shapley attribution of model scores with an interventional value function.

The value of a coalition S for row x is the mean model score over a fixed
background sample whose columns in S are overwritten with x's values.
``shapley_exact`` enumerates all 2^d coalitions (refusing d > 16, the width
of the canonical feature row); ``shapley_sampled`` walks seeded random
feature orderings instead, which keeps the efficiency identity
(contributions along one ordering telescope) while trading exactness for
speed.  The caller picks one; neither falls back to the other.  Attribution
targets the pre-threshold score, never the 0/1 decision.

Exact enumeration reads the coalition values from one table per background
row.  A tree-shaped model fills its tables without scoring a hybrid
(``TrainedModel.coalition_tables``): it walks each tree once per background
row and writes every leaf's value into the coalitions that reach it, as in
Independent TreeSHAP (Lundberg et al. 2020).  That covers a single decision
tree, scaled or not, whose tables span only the columns where x and that row
part ways at a node some hybrid reaches; the boosted (``xgb``, ``catboost``)
and randomized (``extratrees``) ensembles, whose tables span all d columns
and add the trees in the order ``score`` adds them; and a single-class
constant model, one entry per row.  Every other model, and every problem
below ``_TABLE_MIN_ROWS`` hybrids (2^d times the background size), scores
tables over all d columns built by doubling.  Either way each table entry is
the float scoring its hybrid row returns, so the coalition values keep the
bits of scoring every hybrid row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_EXACT_FEATURES = 16  # the canonical feature row's width
DEFAULT_BACKGROUND_SIZE = 128
DEFAULT_ROW_SUBSAMPLE = 100
_COALITION_CHUNK = 256  # coalitions per gather block: its buffers stay in cache (256 KB each at 128 background rows)
_TABLE_CHUNK = 1 << MAX_EXACT_FEATURES  # score-buffer rows: room for a table over every column
_TABLE_MIN_ROWS = 1 << 13

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


def attribution_mode(mode: str) -> str:
    """``mode`` itself if it names an attribution mode: ``exact`` or ``sampled``."""
    if mode not in (SHAP_EXACT, SHAP_SAMPLED):
        raise ValueError(f"unknown attribution mode {mode!r}")
    return mode


def at_least_one(name: str, n: int) -> int:
    """``n`` itself if it is a usable count of ``name``: orderings, background or attributed rows, at least 1."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n!r}")
    return n


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


def _scored_tables(score, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Every hybrid of x and each background row, scored: row b's 2^d entries, row after row.

    Row b's block starts at ``background[b]`` and doubles once per column j
    (copy the first 2^j rows, set column j to ``x[j]``), so entry t takes x
    where t has a bit set.  Blocks fill one reused buffer of ``_TABLE_CHUNK``
    rows, scored whenever the next block would not fit.
    """
    d, n_bg = x.size, background.shape[0]
    size = 1 << d
    per_call = min(n_bg, _TABLE_CHUNK // size)
    table = np.empty(n_bg * size)
    buffer = np.empty((per_call, size, d))
    for start in range(0, n_bg, per_call):
        rows = background[start : start + per_call]
        blocks = buffer[: rows.shape[0]]
        blocks[:, 0] = rows
        for j in range(d):
            blocks[:, 1 << j : 2 << j] = blocks[:, : 1 << j]
            blocks[:, 1 << j : 2 << j, j] = x[j]
        table[start * size : (start + rows.shape[0]) * size] = np.asarray(score(blocks.reshape(-1, d)), dtype=np.float64)
    return table


def _coalition_values(model, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """v(S) for every bitmask S from one table of hybrid scores per background row.

    Row b's table holds the scores of the 2^|F_b| hybrids over a column set
    F_b: entry t takes x at the r-th column of F_b when bit r of t is set and
    row b's values elsewhere.  A model with coalition tables (a tree-shaped
    model, see ``TrainedModel.coalition_tables``) fills them itself without
    scoring a hybrid, over F_b of its choosing; the hybrid of S with row b
    then scores as the entry whose index is S's bits at F_b packed together.
    Any other model gets F_b = every column and ``_scored_tables``.  Each
    block of coalitions reduces the same floats, in the same order, as
    scoring every hybrid row would, so v(S) keeps its bits.  Below
    ``_TABLE_MIN_ROWS`` hybrid rows (2^d times the background size) every
    hybrid is scored, which costs less there: for ``dt`` and ``xgb`` the
    two crossed at about 8,192 rows.
    """
    d = x.size
    tables = getattr(model, "coalition_tables", None)
    filled = None
    if tables is not None and 2**d * background.shape[0] >= _TABLE_MIN_ROWS:
        filled = tables(x, background)
    if filled is None:
        masks = np.ones(background.shape, dtype=bool)
        table = _scored_tables(_score_fn(model), x, background)
    else:
        masks, table = filled
    # bit of column j in row b's table index: 2^(rank of j in F_b), 0 off F_b
    weight = masks.astype(np.int64) << (np.cumsum(masks, axis=1) - masks)
    offsets = np.concatenate(([0], np.cumsum(1 << masks.sum(axis=1))))
    # a block of coalitions S = start | i shares start's bits above i's, so an
    # index is the packed bits of i, built once by doubling, plus those of start
    n = min(_COALITION_CHUNK, 2**d)
    low = np.empty((n, offsets.size - 1), dtype=np.int64)
    low[0] = offsets[:-1]
    for j in range(n.bit_length() - 1):
        low[1 << j : 2 << j] = low[: 1 << j] + weight[:, j]
    values = np.empty(2**d)
    # one index and one gather buffer for all blocks: fresh ones per block
    # can cost a page fault per page each
    index = np.empty_like(low)
    gathered = np.empty(low.shape)
    for start in range(0, 2**d, n):
        np.add(low, weight @ ((start >> np.arange(d)) & 1), out=index)
        # every index is in range; "clip" only spares take a buffered copy of out
        values[start : start + n] = np.take(table, index, out=gathered, mode="clip").mean(axis=1)
    return values


def shapley_exact(model, x, background) -> AttributionRow:
    """Exact Shapley values by full coalition enumeration (d <= 16)."""
    row = _as_row(x)
    d = row.size
    if d > MAX_EXACT_FEATURES:
        raise ValueError(f"exact enumeration limited to {MAX_EXACT_FEATURES} features, got {d}")
    bg = _as_background(background, d)
    score = _score_fn(model)
    values = _coalition_values(model, row, bg)

    d_fact = math.factorial(d)
    weight_by_size = np.array(
        [math.factorial(s) * math.factorial(d - s - 1) / d_fact for s in range(d)]
    )
    # In C order, axis d - 1 - j of the (2,)*d grid of v(S) is bit j of S, so
    # the two halves along it list v(S) and v(S + j) for the coalitions S
    # without j, ascending.  Dropping bit j from those S lists all subsets of
    # the other d - 1 columns in order, so one |S| vector serves every j.
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(d - 1):
        sizes = np.concatenate((sizes, sizes + 1))  # doubling: the next bit adds one
    weight = weight_by_size[sizes]
    grid = values.reshape((2,) * d)
    phi = np.empty(d)
    for j in range(d):
        gain = grid.take(1, axis=d - 1 - j) - grid.take(0, axis=d - 1 - j)
        phi[j] = float(np.sum(weight * gain.ravel()))
    out = float(np.asarray(score(row.reshape(1, -1)), dtype=np.float64)[0])
    return AttributionRow(phi=phi, base_value=float(values[0]), model_output=out)


def shapley_sampled(model, x, background, n_permutations: int = 200, seed: int = 0) -> AttributionRow:
    """Monte-Carlo Shapley: average marginal contributions over seeded orderings.

    One score call takes an ordering's d hybrids stacked (fewer when d
    times the background size passes ``_TABLE_CHUNK`` rows); each hybrid's
    block of scores is averaged on its own, so every value keeps the bits
    of scoring that hybrid alone.
    """
    at_least_one("n_permutations", n_permutations)
    row = _as_row(x)
    d = row.size
    bg = _as_background(background, d)
    score = _score_fn(model)
    rng = np.random.default_rng(seed)

    n_bg = bg.shape[0]
    per_call = max(1, _TABLE_CHUNK // n_bg)  # hybrids per score call: at most one exact-path buffer of rows
    base_value = float(np.asarray(score(bg), dtype=np.float64).mean())
    phi = np.zeros(d)
    for _ in range(n_permutations):
        order = rng.permutation(d)
        taken = np.tri(d, dtype=bool)[:, np.argsort(order)]  # hybrid k takes x at the order's first k + 1 columns
        prev = base_value
        for start in range(0, d, per_call):
            hybrids = np.where(taken[start : start + per_call, None, :], row, bg)
            scores = np.asarray(score(hybrids.reshape(-1, d)), dtype=np.float64)
            for k, j in enumerate(order[start : start + per_call]):
                cur = float(scores[k * n_bg : (k + 1) * n_bg].mean())
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
    attribution_mode(mode)
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
    """Seeded without-replacement background draw of at most ``max_rows`` (>= 1) training rows."""
    at_least_one("background size", max_rows)
    train = np.asarray(train_rows, dtype=np.float64)
    if train.shape[0] <= max_rows:
        return train.copy()
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(train.shape[0], size=max_rows, replace=False))
    return train[picked]


def row_subsample(test_rows: np.ndarray, max_rows: int = DEFAULT_ROW_SUBSAMPLE, seed: int = 0) -> np.ndarray:
    """Seeded without-replacement choice of at most ``max_rows`` (>= 1) rows to attribute, order preserved."""
    at_least_one("attributed row count", max_rows)
    test = np.asarray(test_rows, dtype=np.float64)
    if test.shape[0] <= max_rows:
        return np.arange(test.shape[0])
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(test.shape[0], size=max_rows, replace=False))
