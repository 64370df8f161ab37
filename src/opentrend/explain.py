"""Shapley attribution of model scores with an interventional value function.

The value of a coalition S for row x is the mean model score over a fixed
background sample whose columns in S are overwritten with x's values.
``shapley_exact`` enumerates all 2^d coalitions (refusing d > 16, the width
of the canonical feature row); ``shapley_sampled`` walks seeded random
feature orderings instead, which keeps the efficiency identity
(contributions along one ordering telescope) while trading exactness for
speed.  The caller picks one; neither falls back to the other.  Attribution
targets the pre-threshold score, never the 0/1 decision.

A tree-shaped model (``dt``, scaled or not, the boosted ``xgb`` and
``catboost``, the randomized ``extratrees`` and a single-class constant) has
a ``TreeSum`` state: its score *is* its sum of trees, ``(start, weight,
trees, link)`` computed by ``TreeSum.evaluate``.  The one hook
``TrainedModel.scaled_tree_sum`` hands that form over with x and the
background scaled as ``score`` scales them.  Everything built from it lives
here, after Independent TreeSHAP (Lundberg et al. 2020): the columns that
can move a hybrid of x and a background row (``_relevant_columns``) and one
walk of a tree per background row that fills the row's table of coalitions
without building a hybrid (``_walk``).

Exact enumeration reads the coalition values from one table per background
row.  A tree-shaped model's table spans the union of its trees' relevant
columns for that row; each entry starts at start, each tree's walk adds its
weighted leaf value, and link is applied row by row (``_summed_tables``):
the steps of ``TreeSum.evaluate``.  Every other model, and every problem
below ``_TABLE_MIN_ROWS`` hybrids (2^d times the background size), scores
tables over all d columns built by doubling.  Either way each table entry
is the float scoring its hybrid row returns, so the coalition values keep
the bits of scoring every hybrid row.

Sampled mode needs the d prefix coalitions of each ordering.  A tree sum
over at most 16 columns gives them without scoring a hybrid: each tree is
walked once per background row into its own table of leaf ids, laid out row
after row as above, and each ordering evaluates the sum over its prefix
leaves, so a row costs two score calls (the background and the row itself).
Trees whose tables would together hold more than ``_TABLE_CHUNK`` ids per
background row (exact mode's largest table) are not walked; they, every
other model and every row wider than 16 columns score each ordering's
hybrids stacked.  Either way every hybrid's mean has the bits of scoring
that hybrid alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from opentrend.learners.base import TreeSum

MAX_EXACT_FEATURES = 16  # the canonical feature row's width
DEFAULT_BACKGROUND_SIZE = 128
DEFAULT_ROW_SUBSAMPLE = 100
DEFAULT_PERMUTATIONS = 200
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
    """``n`` itself if it is a usable count of ``name``: orderings, background or attributed rows, an integer >= 1.

    A bool is refused, though Python counts it as an int; a numpy integer is accepted.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
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
    if row.size == 0:
        raise ValueError("attributed row has no columns")
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


def _relevant_columns(tree, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """(n_bg x d) masks of the columns that can move a hybrid of x and a background row in ``tree``.

    A hybrid takes each column from x or from the background row b.  Column
    j is set for b when some node tests j, x and b go different ways there,
    and some hybrid of x and b may reach that node.  Elsewhere x and b go
    the same way, so every hybrid does too: a hybrid lands in the same leaf
    as the hybrid that takes only b's value at the unset columns.  A node is
    counted as reachable when a parent is and x or b goes its way, a
    superset of the nodes hybrids reach, which leaves that statement true.
    Children follow their parent, so one pass in node order visits each
    node after its parent.
    """
    internal = np.nonzero(tree.feature >= 0)[0]
    cols = tree.feature[internal]
    thr = tree.threshold[internal]
    x_left = x[cols] <= thr
    b_left = (background[:, cols] <= thr).T  # (internal nodes, n_bg)
    reach = np.zeros((tree.feature.size, background.shape[0]), dtype=bool)
    reach[0] = True
    for i, node in enumerate(internal):
        at = reach[node]
        reach[tree.left[node]] |= at & (x_left[i] | b_left[i])
        reach[tree.right[node]] |= at & ~(x_left[i] & b_left[i])
    masks = np.zeros((background.shape[1], background.shape[0]), dtype=bool)
    np.logical_or.at(masks, cols, reach[internal] & (b_left != x_left[:, None]))
    return masks.T


def _table_offsets(masks: np.ndarray) -> np.ndarray:
    """Where each background row's table of 2^|F_b| entries starts when the tables lie row after row, then their total."""
    return np.concatenate(([0], np.cumsum(np.left_shift(1, masks.sum(axis=1)))))


def _walk(tree, x: np.ndarray, background: np.ndarray, masks: np.ndarray, leaves, table: np.ndarray, add: bool = False) -> None:
    """Write (or with ``add``, add) ``leaves[leaf]`` of each coalition's leaf into each background row's table.

    A hybrid takes each column of F_b (the set bits of ``masks[b]``, which
    must hold ``tree``'s relevant columns for row b) from x or from b, and
    b's values elsewhere; entry t of row b's table is for the hybrid that
    takes x at the k-th column of F_b when bit k of t is set.  The rows'
    tables of 2^|F_b| entries lie row after row in ``table`` (see
    ``_table_offsets``).  No hybrid is built: the tree is walked once per
    row.  The walk follows x and b where they go the same way.  Where they
    part on column j, it follows bit k of j if the path already fixed it,
    and otherwise branches: x's way with the bit set, b's way with it clear.
    At a leaf it writes into the entries of the coalitions the path admits:
    in the row's ``(2,) * |F_b|`` C-order view, whose axis |F_b| - 1 - k is
    bit k, the bits the path fixed and ``:`` for the others, so a column of
    F_b the tree never branches on takes the same value both ways.  Every
    coalition reaches exactly one leaf, the one ``apply`` gives its hybrid.
    """
    widths = masks.sum(axis=1).tolist()
    offsets = _table_offsets(masks).tolist()
    feature, left, right = (arr.tolist() for arr in (tree.feature, tree.left, tree.right))
    cols = np.maximum(tree.feature, 0)  # a leaf's comparisons are never read
    x_left = (x[cols] <= tree.threshold).tolist()
    b_lefts = background[:, cols] <= tree.threshold
    # axis of column j in row b's view: |F_b| - 1 - (rank of j in F_b)
    axes = masks.sum(axis=1, keepdims=True) - np.cumsum(masks, axis=1)
    free = slice(None)
    for b, (width, begin, end) in enumerate(zip(widths, offsets, offsets[1:])):
        view = table[begin:end].reshape((2,) * width)
        b_left = b_lefts[b].tolist()
        axis = axes[b].tolist()
        stack = [(0, (free,) * width)]
        while stack:
            node, index = stack.pop()
            while feature[node] >= 0:
                go_left = x_left[node]
                if go_left != b_left[node]:
                    a = axis[feature[node]]
                    if index[a] is free:
                        stack.append((left[node] if b_left[node] else right[node], index[:a] + (0,) + index[a + 1 :]))
                        index = index[:a] + (1,) + index[a + 1 :]
                    elif not index[a]:
                        go_left = b_left[node]
                node = left[node] if go_left else right[node]
            if add:
                entries = view[index + (Ellipsis,)]  # a view even where every bit is fixed
                entries += leaves[node]
            else:
                view[index] = leaves[node]


def _summed_tables(tree_sum, x: np.ndarray, background: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A tree sum's masks and tables: row b's table holds link(start + sum of weight * leaf value) of its hybrids.

    ``tree_sum`` is ``(start, weight, trees, link)`` (see
    ``TrainedModel.scaled_tree_sum``).  Row b's table spans F_b, the union
    of the trees' relevant columns for b, and the tables lie row after row
    in one array.  Every entry starts at ``start``, each tree's walk adds
    ``weight * leaf value`` in the order ``TreeSum.evaluate`` adds the
    trees, and link is applied row by row (its temporaries stay one table
    long), so every entry has ``score``'s bits.
    """
    start, weight, trees, link = tree_sum
    masks = np.zeros(background.shape, dtype=bool)
    for tree in trees:
        masks |= _relevant_columns(tree, x, background)
    offsets = _table_offsets(masks).tolist()
    table = np.full(offsets[-1], float(start))
    for tree in trees:
        _walk(tree, x, background, masks, (weight * tree.value).tolist(), table, add=True)
    if link is not None:
        for begin, end in zip(offsets, offsets[1:]):
            table[begin:end] = link(table[begin:end])
    return masks, table


def _index_weights(masks: np.ndarray) -> np.ndarray:
    """Bit of column j in row b's table index: 2^(rank of j in F_b), 0 off F_b (the set bits of ``masks[b]``)."""
    return masks.astype(np.int64) << (np.cumsum(masks, axis=1) - masks)


def _coalition_values(model, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """v(S) for every bitmask S from one table of hybrid scores per background row.

    Row b's table holds the scores of the 2^|F_b| hybrids over a column set
    F_b: entry t takes x at the r-th column of F_b when bit r of t is set and
    row b's values elsewhere.  A tree-shaped model (one with
    ``scaled_tree_sum``) gets its tables from ``_summed_tables`` without
    scoring a hybrid, over the union of its trees' relevant columns; the
    hybrid of S with row b then scores as the entry whose index is S's bits
    at F_b packed together.  Any other model gets F_b = every column and
    ``_scored_tables``.  Each block of coalitions reduces the same floats,
    in the same order, as scoring every hybrid row would, so v(S) keeps its
    bits.  Below ``_TABLE_MIN_ROWS`` hybrid rows (2^d times the background
    size) every hybrid is scored, which costs less there: for ``dt`` and
    ``xgb`` the two crossed at about 8,192 rows.
    """
    d = x.size
    hook = getattr(model, "scaled_tree_sum", None)
    walked = None
    if hook is not None and 2**d * background.shape[0] >= _TABLE_MIN_ROWS:
        walked = hook(x, background)
    if walked is None:
        masks = np.ones(background.shape, dtype=bool)
        table = _scored_tables(_score_fn(model), x, background)
    else:
        masks, table = _summed_tables(*walked)
    weight = _index_weights(masks)
    offsets = _table_offsets(masks)
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


def shapley_sampled(model, x, background, n_permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0) -> AttributionRow:
    """Monte-Carlo Shapley: average marginal contributions over seeded orderings.

    Ordering k's hybrids take x at its first 1, 2, ..., d columns.  A
    tree-shaped model (one with ``TrainedModel.scaled_tree_sum``) scores
    only the background and the row: ``_walked_means`` reads each hybrid's
    leaf in every tree from that tree's table of leaf ids over all
    background rows, filled by one walk of the tree per row before the first
    ordering, so memory follows those tables, not ``n_permutations``.  A
    row wider than ``MAX_EXACT_FEATURES`` is not walked (a row's table
    doubles per relevant column), nor are trees whose tables together pass
    ``_TABLE_CHUNK`` ids per background row.  Those, and every other model,
    score each ordering's hybrids stacked (``_scored_means``).  Either way
    each hybrid's mean score has the bits of scoring that hybrid alone, and
    the contributions are summed in the same order, so phi does not depend
    on the route.
    """
    at_least_one("n_permutations", n_permutations)
    row = _as_row(x)
    d = row.size
    bg = _as_background(background, d)
    score = _score_fn(model)
    rng = np.random.default_rng(seed)
    orders = (rng.permutation(d) for _ in range(n_permutations))

    base_value = float(np.asarray(score(bg), dtype=np.float64).mean())
    hook = getattr(model, "scaled_tree_sum", None)
    walked = hook(row, bg) if hook is not None and d <= MAX_EXACT_FEATURES else None
    means = None if walked is None else _walked_means(*walked, orders)
    if means is None:
        means = _scored_means(score, row, bg, orders)
    phi = np.zeros(d)
    for order, hybrid_means in means:
        prev = base_value
        for j, cur in zip(order, hybrid_means.tolist()):
            phi[j] += cur - prev
            prev = cur
    phi /= n_permutations
    out = float(np.asarray(score(row.reshape(1, -1)), dtype=np.float64)[0])
    return AttributionRow(phi=phi, base_value=base_value, model_output=out)


def _scored_means(score, row: np.ndarray, background: np.ndarray, orders):
    """Each ordering with its d hybrids' mean scores, from one score call per ordering.

    The call takes the ordering's hybrids stacked (fewer when d times the
    background size passes ``_TABLE_CHUNK`` rows); each hybrid's block of
    scores is averaged on its own.
    """
    n_bg, d = background.shape
    per_call = max(1, _TABLE_CHUNK // n_bg)  # hybrids per score call: at most one exact-path buffer of rows
    for order in orders:
        taken = np.tri(d, dtype=bool)[:, np.argsort(order)]  # hybrid k takes x at the order's first k + 1 columns
        means = np.empty(d)
        for start in range(0, d, per_call):
            hybrids = np.where(taken[start : start + per_call, None, :], row, background)
            scores = np.asarray(score(hybrids.reshape(-1, d)), dtype=np.float64)
            means[start : start + per_call] = scores.reshape(-1, n_bg).mean(axis=1)
        yield order, means


def _walked_means(tree_sum, row: np.ndarray, background: np.ndarray, orders):
    """Each ordering with its d hybrids' mean scores, read from leaf ids without scoring a hybrid; None past the budget.

    ``tree_sum`` is ``(start, weight, trees, link)``.  Each tree gets its own
    table of leaf ids: one walk per background row writes the row's ids, in
    the smallest unsigned dtype that holds a node id, and the rows' tables
    lie row after row in one array.  The tables are sized tree by tree
    before any tree is walked; as soon as those sized so far would hold more
    than ``_TABLE_CHUNK`` ids per background row (exact mode's largest
    table), sizing stops, nothing is walked and None is returned.  Memory
    follows the tables, not the number of orderings.
    With a tree's relevant-column masks packed into ``_index_weights``, the
    leaf of ordering o's hybrid k over row b is entry
    ``cumsum(index_weight[b, o])[k]`` of row b's table: the prefix
    coalitions' packed bits, in ordering order.  ``TreeSum.evaluate`` adds
    each tree's (d x n_bg) leaf values in ``score``'s order, so a hybrid's
    scores are the floats scoring it returns, and their mean has its bits.
    """
    trees = tree_sum[2]
    masks, offsets = [], []
    room = background.shape[0] * _TABLE_CHUNK
    for tree in trees:
        masks.append(_relevant_columns(tree, row, background))
        offsets.append(_table_offsets(masks[-1]))
        room -= offsets[-1][-1]
        if room < 0:
            return None
    tables = []
    for tree, tree_masks, ends in zip(trees, masks, offsets):
        ids = np.empty(ends[-1], dtype=np.min_scalar_type(tree.feature.size - 1))
        _walk(tree, row, background, tree_masks, range(tree.feature.size), ids)
        # a bit of at most 16 columns fits in 2 bytes: a quarter of the int64 weights
        tables.append((tree.value, ids, _index_weights(tree_masks).astype(np.uint16), ends[:-1]))

    def hybrid_means(order):
        leaf_values = (
            value.take(ids.take(np.cumsum(weight[:, order], axis=1, dtype=np.int64).T + starts))  # (d, n_bg)
            for value, ids, weight, starts in tables
        )
        return TreeSum.evaluate(tree_sum, leaf_values, (row.size, background.shape[0])).mean(axis=1)

    return ((order, hybrid_means(order)) for order in orders)


def global_importance(
    model,
    rows,
    background,
    feature_names: tuple[str, ...],
    mode: str = SHAP_EXACT,
    n_permutations: int = DEFAULT_PERMUTATIONS,
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
