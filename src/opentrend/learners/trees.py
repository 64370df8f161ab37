"""Binary decision trees on numeric features.

One growth engine serves two split strategies: the exhaustive search, which
scores every midpoint threshold of every candidate column by a gini
criterion (DecisionTree) or a sum-of-squares criterion (boosting's
regression trees), and the random-threshold entropy splits of the
extremely-randomized ensemble.  Nodes expand depth-first, left child first,
so any random draws happen in a fixed, reproducible order.

Both strategies read columns that are sorted once per fit (XGBoost's
pre-sorted column block, Chen & Guestrin 2016, section 4.1): ``sort_columns``
gives a (columns x rows) block of row ids, each column's ids ordered by
(value, row id), with the matching values.  Boosting sorts once for all its
rounds and the ensemble once for all its trees, since only the target or
the random draws change between them.  The grower hands each node its own
block, which holds exactly the node's rows in that order: the root's block
is the whole sort, and a split compresses its node's block row by row into
the left and right children's blocks.  Compression keeps the order, so a
node's block is the (value, row id) sort of its own rows, ties included,
and a finder scores a node from its block (or from the rows of the block
for the candidate columns) without touching the rows outside the node.  A
node that cannot split (depth limit, fewer than two rows or a constant
target) gets no block and becomes a leaf.  Node totals and leaf values are
summed over the node's row indices in ascending order, so they keep the bits
of a per-node sum, except where a DecisionTree split hands them down (see
below).

A node costs a few dozen numpy calls on a few dozen to a few hundred rows,
so the grower pays for calls and index machinery more than for arithmetic.
Blocks are therefore gathered through flat indices: a child's block is one
``take`` at the flat positions of its go-left flags in the parent's block (a
2-D boolean mask costs several times more), and the exhaustive finder reads
the candidate columns' rows and their targets with ``take``.  It then
scores the cuts in place in the gathered buffer, each element through the
operations of the plain array expression in its order, so no bit depends
on the buffering.  For the same reason sums, prefix sums and extrema call
the ufuncs (``np.add.reduce``, ``np.add.accumulate``, ``np.maximum.reduce``,
``np.minimum.reduce``) rather than the ``sum``/``cumsum``/``max``/``min``
wrappers, which run the same loops behind a Python layer; a split reads its
go-left flags from a contiguous row of a transposed copy of X, made once per
grow, rather than from a strided column; and a split appends both children
to the node lists at once.

DecisionTree's labels are 0/1, so every left-hand sum of its gini search
is an exact count: L ones among the l rows left of a cut.  Each side's term
l * gini is then a fixed function F(L, l) of two integers, and a cut of a
node with n rows and T ones scores (F(L, l) + F(T - L, n - l)) / n.  The
count table holds F for 0 <= L <= l <= W (``_COUNT_TABLE_ROWS`` = 256, a
triangle of 33,153 doubles, about 260 KB), built once per process on the
first gini fit.  Each of its rows is computed in place by the same
per-element operations, in the same order, that score a cut directly, so
every entry has those bits.  A node of at most W rows scores its cuts with
two gathers from the table, one add and one divide, where the direct
scoring takes about twenty numpy calls; a larger node scores them directly.
The gini finder also hands back the exact ones count of each child
(``_SplitChoice.counts``), and ``grow_tree`` passes it down: a child with T
ones among n rows is pure when T is 0 or n (``max != min`` on 0/1 labels),
its leaf value is T / n (the IEEE division ``target[idx].sum() / idx.size``
makes) and its finder starts from T instead of gathering the sum again.
Boosting's finder hands back no counts, since its gradient sums must stay
ascending-id pairwise sums, and neither does ExtraTrees', so their nodes
still gather.

The exhaustive finder cuts between two adjacent distinct sorted values lo <
hi at their midpoint (lo + hi) / 2.  For neighbouring doubles that midpoint
can round onto hi (or overflow to an infinity), which would send every row
to one side; then the threshold is lo, as scikit-learn does.  Either way
rows with values <= lo go left and rows with values >= hi go right.

A cut between two equal sorted values is no cut, so the finder masks its
score.  Which columns need the mask is a property of the fit, not of the
node: a node's block is a subsequence of the root's, so a column with no two
equal neighbours in the root block has none in any node's.  A fit finds
once the span from the first to the last column that ties in its root block
(``tie_span``), and a node whose candidates are every column (boosting, and
DecisionTree with ``max_features`` at or above the column count) compares
and masks only that span, or nothing when no column ties.  A node with
drawn candidates compares and masks them all.  On the benchmark's markets
the 4 INT columns never tie and the 16 INT+HIST+NOW columns tie only in
dc_u, dc_l and dc_m.  Unmasked columns have no equal neighbours, so every
bit of the search stays as a full mask leaves it.

Candidate columns come from a source ``grow_tree`` calls once per node it
tries to split.  ExtraTrees draws them from each tree's own generator,
because its draws interleave with the finder's uniform thresholds.  Boosting
passes no source, so every column is a candidate.  DecisionTree's k-th draw
depends only on its seed, the column count and ``max_features``, so its
fits read the draws from one list for that key, kept by ``lru_cache``: all
refits of a rolling cell share the cell seed, and the list draws each node's
columns once.  The cache holds the most recent key only, and appending to
the list takes no lock: the grid runs its cells one at a time.

An expanding-window refit starts from the previous window's fit.  The cache
entry of a key also keeps the last fit of that key: its root block, its
labels, its tree and each node's draw index.  A key with every column a
candidate (``max_features`` at or above the column count, as with the
4-column INT set and the default 5) draws nothing but keeps a last fit too.
A fit of the same ``max_depth`` whose labels start with those labels, and
whose rows gathered at the kept block's ids hold the block's values bit for
bit (compared as int64, so -0.0 is not 0.0), extends that window.  Its block
is then carried rather than sorted: each column's new rows are sorted among
themselves and inserted after their equal values, which is the (value, row
id) order ``sort_columns`` gives, since new rows have the largest ids.  And
its grower walks the old tree in lockstep (``grow_tree``'s ``previous``): a
node whose rows are all old and whose draw index equals its counterpart's
has that node's rows, depth and draws, so the old subtree is copied instead
of grown.  With no draws, a node's subtree depends only on its rows and
depth, so a node whose rows are all old is copied whatever its draw index.
Every other fit, including a sliding (``freeze_window``) or shorter window,
an edited prefix, a standardized spec and another ``max_depth``, sorts and
grows from scratch.  Either way the tree, and so the model JSON, is the one
a fresh fit gives.  Boosting and ExtraTrees grow every tree afresh: a
boosting round's gradients change with every added row, and an ExtraTrees
node depends on its generator's whole earlier state.

Tie-breaking is explicit everywhere: candidate columns are scanned in
ascending index order and only a strictly better gain displaces the
incumbent, so equal-gain ties resolve to the lowest column index; within a
column, thresholds are scanned in ascending order and the first optimum
wins, i.e. the lowest threshold.

``DecisionTreeState`` is a ``TreeSum`` of its one tree: its score is that
sum, and ``explain`` walks the same tree for Shapley attribution.
``TreeArrays.apply`` walks one tree's rows down a level at a time; a
boosted or randomized ensemble is scored by ``TreeSum.score``, which walks
all of its trees that way at once, over blocks of (tree, row) entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from opentrend.learners.base import TreeSum, positive_int, register_family

_UNBOUNDED_DEPTH = 10**9


@dataclass(eq=False)
class TreeArrays:
    """Flat node-array form of a fitted tree; feature < 0 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        """Refuse arrays that are ragged or whose children do not follow their parent.

        Children after their parent (as depth-first numbering gives them)
        make every path through the tree end at a leaf.
        """
        arrays = (self.feature, self.threshold, self.left, self.right, self.value)
        n = self.feature.size
        if n < 1 or any(a.ndim != 1 or a.size != n for a in arrays):
            raise ValueError(f"tree arrays must be non-empty and of equal length, got shapes {[a.shape for a in arrays]}")
        links = (self.feature, self.left, self.right)
        if not all(np.issubdtype(a.dtype, np.integer) for a in links):
            raise ValueError(f"tree feature, left and right must be integer arrays, got {[str(a.dtype) for a in links]}")
        node = np.arange(n)
        ok = np.where(
            self.feature >= 0,
            (self.left > node) & (self.left < n) & (self.right > node) & (self.right < n),
            (self.left == -1) & (self.right == -1),
        )
        if not ok.all():
            bad = int(np.argmin(ok))
            raise ValueError(
                f"tree node {bad} has children ({self.left[bad]}, {self.right[bad]}): "
                f"an internal node's must lie in ({bad}, {n}), a leaf's must be -1"
            )

    def check_columns(self, n_columns: int) -> None:
        """Refuse a tree that tests a column outside a model's n_columns."""
        bad = np.nonzero(self.feature >= n_columns)[0]
        if bad.size:
            raise ValueError(f"tree node {bad[0]} tests column {self.feature[bad[0]]} of a {n_columns}-column model")

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf value for every row (rows with feature <= threshold go left)."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.nonzero(self.feature[node] >= 0)[0]
        while active.size:
            cur = node[active]
            go_left = X[active, self.feature[cur]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
            active = active[self.feature[node[active]] >= 0]
        return self.value[node]


class _SplitChoice(NamedTuple):
    """A node's split; ``counts`` holds the exact target sums of the left and right child, when the finder has them."""

    column: int
    threshold: float
    gain: float
    counts: tuple[int, int] | None = None


def sort_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root block of X: per column, row ids sorted by (value, row id) and the sorted values."""
    ids = np.argsort(X.T, axis=1, kind="stable")
    return ids, np.take_along_axis(X.T, ids, axis=1)


def tie_span(block: tuple[np.ndarray, np.ndarray]) -> slice | None:
    """The block's columns from the first to the last with two equal sorted neighbours; None when no column has.

    A node's block is a subsequence of the root's, so a column with no tie
    in the root block has none in any node's.
    """
    values = block[1]
    tied = np.nonzero((values[:, :-1] == values[:, 1:]).any(axis=1))[0]
    return slice(int(tied[0]), int(tied[-1]) + 1) if tied.size else None


def random_candidates(rng: np.random.Generator, d: int, m: int) -> Callable[[], np.ndarray] | None:
    """A candidate source drawing m sorted columns of d from rng per node; None (all columns) when m >= d."""
    if m >= d:
        return None
    return lambda: np.sort(rng.choice(d, size=m, replace=False))


def _compress(block: tuple[np.ndarray, np.ndarray], keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a block where keep is set; each column keeps its order."""
    ids, values = block
    # one flat gather costs a fraction of a 2-D boolean mask; shaped once, the positions shape both takes
    flat = keep.ravel().nonzero()[0].reshape(ids.shape[0], -1)
    return ids.take(flat), values.take(flat)


@dataclass(frozen=True, eq=False)
class GrownTree:
    """A grown tree with what a later grow on more rows needs to start from it.

    ``draws[i]`` is the index of node i's candidate draw, counted from the
    grow's first, or -1 for a node made a leaf without drawing; ``n_rows`` is
    the number of rows the tree was grown on.
    """

    tree: TreeArrays
    draws: np.ndarray
    n_rows: int


def grow_tree(
    X: np.ndarray,
    target: np.ndarray,
    *,
    max_depth: int,
    candidates: Callable[[], np.ndarray] | None,
    find_split: Callable[[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], int | None], _SplitChoice | None],
    block: tuple[np.ndarray, np.ndarray],
    leaf_value: Callable[[np.ndarray], float] | None = None,
    previous: GrownTree | None = None,
) -> GrownTree:
    """Grow one tree over row indices of X with pluggable split logic.

    ``block`` is ``sort_columns(X)``.  A node with constant target is a
    leaf; a leaf holds the mean target of its rows unless ``leaf_value`` maps
    its row indices to another value.  ``candidates()`` returns the next
    node's sorted candidate columns; with no source every node gets all of
    them.  ``find_split(idx, candidates, node_block, count)`` gets the node's
    ascending row indices, its candidate columns, the node's block and the
    node's target sum when a split's ``counts`` gave it, else None.  A node
    with a count is pure when the count is 0 or its row count, and its leaf
    value is count / rows: on 0/1 targets, the test and the bits of a
    gathered max/min and sum / size.

    ``previous`` is a grow with mean leaves and the same split logic on the
    first ``previous.n_rows`` rows of X and target, whose candidate source
    gave the same draws from its first.  A node's counterpart there is the
    node reached by the same (column, threshold) choices.  A node whose rows
    all lie in that prefix, and whose draw index equals its counterpart's or
    that has no source to draw from, has the same rows, depth and
    candidates, so it would grow the same subtree: that subtree is copied,
    its node ids shifted, and the source is advanced past the draws it used.
    """
    all_columns = np.arange(X.shape[1])
    columns = np.ascontiguousarray(X.T)  # a split's go-left flags read one contiguous row
    # the root node; a split appends both its children at once
    feature, threshold, left, right, value, draws = [-1], [0.0], [-1], [-1], [0.0], [-1]
    drawn = 0  # draws made or copied so far: the next drawing node's index
    in_left = np.zeros(X.shape[0], dtype=bool)  # go-left flags, valid only at the rows of the node just split

    def splittable(idx: np.ndarray, depth: int, count: int | None) -> bool:
        if depth >= max_depth or idx.size < 2:
            return False
        if count is not None:
            return 0 < count < idx.size
        t = target.take(idx)
        return np.maximum.reduce(t) != np.minimum.reduce(t)

    if previous is not None:
        old = previous.tree
        old_feature, old_threshold, old_left, old_right, old_value, old_draws = (
            a.tolist() for a in (old.feature, old.threshold, old.left, old.right, old.value, previous.draws)
        )
        ends = _subtree_ends(old_feature, old_left, old_right)

    def copy(node: int, twin: int) -> int:
        """Copy twin's subtree from the previous tree onto node; returns the draws it used."""
        feature[node], threshold[node], value[node] = old_feature[twin], old_threshold[twin], old_value[twin]
        draws[node] = old_draws[twin]
        if old_feature[twin] < 0:
            return 1
        start, end = old_left[twin], ends[twin]  # the descendants: one contiguous id range
        shift = len(feature) - start
        left[node], right[node] = old_left[twin] + shift, old_right[twin] + shift
        feature.extend(old_feature[start:end])
        threshold.extend(old_threshold[start:end])
        value.extend(old_value[start:end])
        draws.extend(old_draws[start:end])
        left.extend(i + shift if i >= 0 else -1 for i in old_left[start:end])
        right.extend(i + shift if i >= 0 else -1 for i in old_right[start:end])
        return max(old_draws[twin], *old_draws[start:end]) + 1 - old_draws[twin]  # a subtree's draws are consecutive

    idx = np.arange(X.shape[0])
    # a node without a block is a leaf; twin is its counterpart in the previous tree, -1 for none;
    # count is the node's target sum, None where no split handed it down
    stack = [(0, idx, 0, block if splittable(idx, 0, None) else None, -1 if previous is None else 0, None)]
    while stack:
        node, idx, depth, node_block, twin, count = stack.pop()
        choice = None
        if node_block is not None:
            if twin >= 0 and (candidates is None or old_draws[twin] == drawn) and idx[-1] < previous.n_rows:
                used = copy(node, twin)
                drawn += used
                if candidates is not None:
                    for _ in range(used):
                        candidates()
                continue
            draws[node] = drawn
            drawn += 1
            choice = find_split(idx, all_columns if candidates is None else candidates(), node_block, count)
        if choice is None:
            if leaf_value is not None:
                value[node] = leaf_value(idx)
            else:
                value[node] = float((target[idx].sum() if count is None else count) / idx.size)
            continue
        go_left = columns[choice.column].take(idx) <= choice.threshold
        feature[node] = choice.column
        threshold[node] = choice.threshold
        left_id = left[node] = len(feature)
        right_id = right[node] = left_id + 1
        feature += (-1, -1)
        threshold += (0.0, 0.0)
        left += (-1, -1)
        right += (-1, -1)
        value += (0.0, 0.0)
        draws += (-1, -1)
        left_idx, right_idx = idx[go_left], idx[~go_left]
        left_count, right_count = choice.counts or (None, None)
        left_ok = splittable(left_idx, depth + 1, left_count)
        right_ok = splittable(right_idx, depth + 1, right_count)
        left_block = right_block = None
        if left_ok or right_ok:
            in_left[idx] = go_left
            keep = in_left.take(node_block[0])
            left_block = _compress(node_block, keep) if left_ok else None
            right_block = _compress(node_block, ~keep) if right_ok else None
        left_twin = right_twin = -1
        if twin >= 0 and old_feature[twin] == choice.column and old_threshold[twin] == choice.threshold:
            left_twin, right_twin = old_left[twin], old_right[twin]
        stack.append((right_id, right_idx, depth + 1, right_block, right_twin, right_count))
        stack.append((left_id, left_idx, depth + 1, left_block, left_twin, left_count))  # popped first: left first
    tree = TreeArrays(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )
    return GrownTree(tree=tree, draws=np.array(draws, dtype=np.int64), n_rows=X.shape[0])


def _subtree_ends(feature: list[int], left: list[int], right: list[int]) -> list[int]:
    """Per node, one past the largest node id in its subtree (children follow their parent)."""
    ends = list(range(1, len(feature) + 1))
    for node in reversed(range(len(feature))):
        if feature[node] >= 0:
            ends[node] = max(ends[left[node]], ends[right[node]])
    return ends


# ---------------------------------------------------------------------------
# impurity helpers (binary labels as float 0/1)
# ---------------------------------------------------------------------------


def _gini_from_counts(n_ones, n_total):
    p = n_ones / n_total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _entropy(n_ones: float, n_total: int) -> float:
    """Binary entropy of a node; scalar ``math`` costs less than numpy's 0-d arrays here."""
    p = n_ones / n_total
    out = 0.0
    for q in (p, 1.0 - p):
        if q > 0:
            out -= q * math.log(q)
    return out


def _weighted_gini(side, count, tmp):
    """In place, side (the ones among count rows) becomes count * gini.

    Each element goes through ``_gini_from_counts``'s operations in its
    order, so it has the bits of that expression on fresh arrays.
    """
    side /= count  # p
    np.subtract(1.0, side, out=tmp)
    tmp *= tmp  # (1 - p)^2
    side *= side
    np.subtract(1.0, side, out=side)
    side -= tmp  # 1 - p^2 - (1 - p)^2
    side *= count


# Nodes of at most this many rows score their cuts from the count table.  On
# step-2 rolling dt refits of 16 columns (4 markets, two runs of 10 and 12
# rounds interleaving the sizes in one process), 256 rows (a 260 KB table)
# had lower median fit times than 128 rows in both runs; 512 rows was about
# 3% faster again, but its table takes 1 MB.
_COUNT_TABLE_ROWS = 256


@functools.cache
def _gini_count_table() -> tuple[np.ndarray, np.ndarray]:
    """(table, starts): table[starts[l] + L] is ``_weighted_gini`` of L ones among l rows, 0 <= L <= l <= W.

    W is ``_COUNT_TABLE_ROWS``; starts[l] = l (l + 1) / 2, so the table is
    the triangle of rows l = 0..W, row l holding L = 0..l.  Row 0 is never
    read (a cut leaves a row on each side) and holds nan.  Each row is
    computed in place by ``_weighted_gini``, so every entry has the bits the
    direct scoring gives.  Built on the first use, not at import.
    """
    rows = _COUNT_TABLE_ROWS
    starts = np.arange(rows + 2) * np.arange(1, rows + 3) // 2
    table = np.empty(starts[-1])
    table[0] = np.nan
    ones = np.arange(rows + 1.0)
    tmp = np.empty(rows + 1)
    for l in range(1, rows + 1):
        side = table[starts[l] : starts[l + 1]]
        side[:] = ones[: l + 1]
        _weighted_gini(side, float(l), tmp[: l + 1])
    return table, starts


def _gini_best_cut(total, n, n_left, n_right, sums, parent, ties, tied=slice(None)):
    """Per cut, (n_left gini(left) + n_right gini(right)) / n, from the exact left counts in sums.

    On 0/1 labels each side's term depends only on its integer (ones, rows)
    pair, so a node of at most ``_COUNT_TABLE_ROWS`` rows gathers both terms
    from the count table; a larger node computes them with
    ``_weighted_gini``.  Either way a cut's score is the same two terms
    added, then divided by n, with the same bits.
    """
    if n <= _COUNT_TABLE_ROWS:
        table, starts = _gini_count_table()
        scores = table.take(sums + starts[1:n])
        scores += table.take((starts[n - 1 : 0 : -1] + int(total)) - sums)
    else:
        scores = sums.astype(np.float64)
        right = np.subtract(total, scores)
        tmp = np.empty_like(scores)
        _weighted_gini(scores, n_left, tmp)
        _weighted_gini(right, n_right, tmp)
        scores += right
    scores /= n
    if ties is not None:
        np.copyto(scores[tied], np.inf, where=ties)
    return scores, parent - np.minimum.reduce(scores, axis=1)


def _sse_best_cut(total, n, n_left, n_right, sums, parent, ties, tied=slice(None)):
    """In place, left sums s_L become s_L^2 / n_left + s_R^2 / n_right."""
    right = np.subtract(total, sums)
    sums *= sums
    sums /= n_left
    right *= right
    right /= n_right
    sums += right
    if ties is not None:
        np.copyto(sums[tied], -np.inf, where=ties)
    return sums, np.maximum.reduce(sums, axis=1) - parent


class _Criterion(NamedTuple):
    """How the exhaustive finder scores cuts.

    parent_term(total, n) scores the node; best_cut(total, n, n_left,
    n_right, sums, parent, ties, tied) turns one row of left-hand target sums
    per candidate column into each cut's score, ties marking the cuts between
    equal values in the rows ``tied`` (all by default; None for ties means
    no cut ties), and returns the scores and per column the gain of its best
    cut (-inf where a column has none); best_position(row) is the first best
    cut of one row of scores.  With ``exact_counts`` the targets are 0/1
    labels: the left sums are summed as int64 counts and the chosen cut's
    counts are handed to the children.  Each criterion picks with its own
    min/max: gini on 0/1 labels and SSE rank splits alike in exact
    arithmetic, but rounding breaks near-ties differently.

    ``tied`` holds the columns whose cuts can fall between equal values in
    a node whose candidates are every column: all of them (``GINI`` and
    ``SSE``), or a fit's ``tie_span`` of its root block.  There the finder
    compares and masks only those columns, and none when it is None.  A
    node with drawn candidates compares and masks them all.
    """

    parent_term: Callable
    best_cut: Callable
    best_position: Callable
    exact_counts: bool
    tied: slice | None = slice(None)


GINI = _Criterion(_gini_from_counts, _gini_best_cut, np.ndarray.argmin, True)  # class impurity of 0/1 labels
# sum-of-squares reduction of a real target
SSE = _Criterion(lambda total, n: total * total / n, _sse_best_cut, np.ndarray.argmax, False)


def make_exhaustive_finder(target: np.ndarray, criterion: _Criterion):
    """Exhaustive split: best midpoint threshold of any candidate column by criterion.

    The finder reads the node's block from ``grow_tree`` (see the module
    docstring); ``idx`` holds the node's at least two row indices in
    ascending order.  ``target`` is a float64 array (0/1 for GINI).
    """
    parent_term, best_cut, best_position, counted, tied = criterion
    summed = target.astype(np.int64) if counted else target  # 0/1 labels sum exactly as integers
    counts = np.arange(1.0, target.size)  # n_left of every cut; reversed, n_right

    def find(
        idx: np.ndarray, candidates: np.ndarray, block: tuple[np.ndarray, np.ndarray], total: int | None = None
    ) -> _SplitChoice | None:
        n = idx.size
        if total is None:
            total = int(np.add.reduce(summed.take(idx))) if counted else float(np.add.reduce(target.take(idx)))
        parent = parent_term(total, n)
        rows, xs = block
        span = tied
        if candidates.size < rows.shape[0]:
            rows, xs = rows.take(candidates, axis=0), xs.take(candidates, axis=0)
            span = slice(None)
        sums = summed.take(rows[:, :-1])
        np.add.accumulate(sums, axis=1, out=sums)
        n_left = counts[: n - 1]
        ties = None if span is None else xs[span, :-1] == xs[span, 1:]
        scores, gain = best_cut(total, n, n_left, n_left[::-1], sums, parent, ties, span)
        c = int(gain.argmax())  # first maximum: lowest column
        if gain[c] <= 0.0:
            return None
        cut = int(best_position(scores[c]))  # first optimum: lowest threshold
        lo, hi = float(xs[c, cut]), float(xs[c, cut + 1])
        thr = (lo + hi) / 2.0
        if not lo <= thr < hi:  # the midpoint of adjacent doubles can round onto hi: cut at lo
            thr = lo
        children = None
        if counted:
            ones = int(sums[c, cut])
            children = (ones, total - ones)
        return _SplitChoice(int(candidates[c]), thr, float(gain[c]), children)

    return find


def make_random_entropy_finder(y: np.ndarray, rng: np.random.Generator):
    """Extremely-randomized split: one uniform threshold per candidate column.

    The finder reads the node's block from ``grow_tree``: a column's range is
    its first and last sorted value, and the rows left of a threshold are a
    prefix of its sorted row ids, whose 0/1 labels sum exactly in any order.
    """

    def find(
        idx: np.ndarray, candidates: np.ndarray, block: tuple[np.ndarray, np.ndarray], total: int | None = None
    ) -> _SplitChoice | None:
        n = idx.size
        if total is None:  # always: this finder hands back no counts
            total = float(y[idx].sum())
        parent = _entropy(total, n)
        rows, xs = block
        best: _SplitChoice | None = None
        for col in candidates:
            col_values = xs[col]
            lo = float(col_values[0])
            hi = float(col_values[-1])
            if lo == hi:
                continue
            thr = float(rng.uniform(lo, hi))
            n_left = int(np.searchsorted(col_values, thr, side="right"))
            if n_left == 0 or n_left == n:
                continue
            ones_left = float(y[rows[col, :n_left]].sum())
            ones_right = total - ones_left
            child = (
                n_left * _entropy(ones_left, n_left)
                + (n - n_left) * _entropy(ones_right, n - n_left)
            ) / n
            gain = parent - child
            if gain > 0.0 and (best is None or gain > best.gain):
                best = _SplitChoice(column=int(col), threshold=thr, gain=gain)
        return best

    return find


# ---------------------------------------------------------------------------
# DecisionTree family
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DecisionTreeState(TreeSum):
    kind = "decision_tree"
    tree: TreeArrays

    def tree_sum(self):
        """The tree alone."""
        return 0.0, 1.0, [self.tree], None


@dataclass(frozen=True, eq=False)
class _LastFit:
    """A DecisionTree fit kept for the next fit of its seed draws: its root block and labels, and its grow."""

    max_depth: int
    block: tuple[np.ndarray, np.ndarray]
    y: np.ndarray
    grown: GrownTree


@dataclass(eq=False)
class _SeedDraws:
    """The draws of ``random_candidates(default_rng(seed), d, m)`` made so far, the source of the next, the last fit.

    With m >= d every column is a candidate: ``draw`` is None and nothing is drawn.
    """

    drawn: list[np.ndarray]
    draw: Callable[[], np.ndarray] | None
    last: _LastFit | None = None


@functools.lru_cache(maxsize=1)  # the most recent (seed, d, m) only
def _draw_list(seed: int, d: int, m: int) -> _SeedDraws:
    """The shared draws of (seed, d, m) and the last fit that read them."""
    return _SeedDraws([], random_candidates(np.random.default_rng(seed), d, m))


class _DrawReader:
    """A candidate source reading the shared draws of one (seed, d, m) from the first; ``seed_draws`` holds them."""

    def __init__(self, seed_draws: _SeedDraws) -> None:
        self.seed_draws = seed_draws
        self.k = 0

    def __call__(self) -> np.ndarray:  # arrays its caller must not write
        drawn = self.seed_draws.drawn
        if self.k == len(drawn):
            drawn.append(self.seed_draws.draw())
        self.k += 1
        return drawn[self.k - 1]


def _extend_block(block: tuple[np.ndarray, np.ndarray], X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sort_columns(X)`` from the block of X's first rows.

    Each column's new rows are sorted among themselves (stable) and go after
    their equal values (``searchsorted(side="right")``): their ids are the
    largest, so this is the (value, row id) order, ties and -0.0 == 0.0
    included.
    """
    ids, values = block
    n_old = ids.shape[1]
    fresh = X[n_old:].T
    order = np.argsort(fresh, axis=1, kind="stable")
    fresh = np.take_along_axis(fresh, order, axis=1)
    at = np.array([np.searchsorted(column, new, side="right") for column, new in zip(values, fresh)])
    at += np.arange(fresh.shape[1])  # each new row also lands after the new rows before it
    is_new = np.zeros((ids.shape[0], X.shape[0]), dtype=bool)
    np.put_along_axis(is_new, at, True, axis=1)
    out_ids, out_values = np.empty(is_new.shape, dtype=ids.dtype), np.empty(is_new.shape)
    out_ids[is_new], out_ids[~is_new] = (order + n_old).ravel(), ids.ravel()
    out_values[is_new], out_values[~is_new] = fresh.ravel(), values.ravel()
    return out_ids, out_values


def _resume(seed_draws: _SeedDraws, X: np.ndarray, y: np.ndarray, max_depth: int):
    """X's root block and a grow to start from: the last fit's, carried, if X and y extend its rows; else a sort, None.

    The last fit leaves ``seed_draws`` here, so its block is freed as soon as
    the new one is built.  X and y extend its rows when it had this
    max_depth, y starts with its labels and X's rows gathered at its block's
    ids hold the block's values, compared as int64 so that every bit counts.
    """
    last = seed_draws.last
    if last is not None:
        seed_draws.last = None
        ids, values = last.block
        if (
            last.max_depth == max_depth
            and X.shape[0] >= ids.shape[1]
            and np.array_equal(y[: ids.shape[1]], last.y)
            and np.array_equal(np.take_along_axis(X.T, ids, axis=1).view(np.int64), values.view(np.int64))
        ):
            return _extend_block(last.block, X), last.grown
    return sort_columns(X), None


def _fit_decision_tree(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> DecisionTreeState:
    seed_draws = _draw_list(seed, X.shape[1], hyper["max_features"])
    block, previous = _resume(seed_draws, X, y, hyper["max_depth"])
    drawing = seed_draws.draw is not None
    grown = grow_tree(
        X,
        y,
        max_depth=hyper["max_depth"],
        candidates=_DrawReader(seed_draws) if drawing else None,
        find_split=make_exhaustive_finder(y, GINI if drawing else GINI._replace(tied=tie_span(block))),
        block=block,
        previous=previous,
    )
    seed_draws.last = _LastFit(hyper["max_depth"], block, y, grown)
    return DecisionTreeState(tree=grown.tree)


register_family(
    "DecisionTree",
    _fit_decision_tree,
    defaults={"max_depth": 10, "max_features": 5},
    validators={"max_depth": positive_int, "max_features": positive_int},
    state_cls=DecisionTreeState,
)
