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
still summed over the node's row indices in ascending order, so they keep
the bits of a per-node sum.

Tie-breaking is explicit everywhere: candidate columns are scanned in
ascending index order and only a strictly better gain displaces the
incumbent, so equal-gain ties resolve to the lowest column index; within a
column, thresholds are scanned in ascending order and the first optimum
wins, i.e. the lowest threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from opentrend.learners.base import positive_int, register_family

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

    def relevant_columns(self, x: np.ndarray, background: np.ndarray) -> np.ndarray:
        """(n_bg x d) masks of the columns that can move a hybrid of x and a background row.

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
        internal = np.nonzero(self.feature >= 0)[0]
        cols = self.feature[internal]
        thr = self.threshold[internal]
        x_left = x[cols] <= thr
        b_left = (background[:, cols] <= thr).T  # (internal nodes, n_bg)
        reach = np.zeros((self.feature.size, background.shape[0]), dtype=bool)
        reach[0] = True
        for i, node in enumerate(internal):
            at = reach[node]
            reach[self.left[node]] |= at & (x_left[i] | b_left[i])
            reach[self.right[node]] |= at & ~(x_left[i] & b_left[i])
        masks = np.zeros((background.shape[1], background.shape[0]), dtype=bool)
        np.logical_or.at(masks, cols, reach[internal] & (b_left != x_left[:, None]))
        return masks.T


@dataclass(frozen=True)
class _SplitChoice:
    column: int
    threshold: float
    gain: float


def sort_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root block of X: per column, row ids sorted by (value, row id) and the sorted values."""
    ids = np.argsort(X.T, axis=1, kind="stable")
    return ids, np.take_along_axis(X.T, ids, axis=1)


def _compress(block: tuple[np.ndarray, np.ndarray], keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a block where keep is set; each column keeps its order."""
    ids, values = block
    return ids[keep].reshape(ids.shape[0], -1), values[keep].reshape(ids.shape[0], -1)


def grow_tree(
    X: np.ndarray,
    target: np.ndarray,
    *,
    max_depth: int,
    max_features: int | None,
    rng: np.random.Generator | None,
    find_split: Callable[[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]], _SplitChoice | None],
    block: tuple[np.ndarray, np.ndarray],
    leaf_value: Callable[[np.ndarray], float] | None = None,
) -> TreeArrays:
    """Grow one tree over row indices of X with pluggable split logic.

    ``block`` is ``sort_columns(X)``.  A node with constant target is a
    leaf; a leaf holds the mean target of its rows unless ``leaf_value`` maps
    its row indices to another value.  ``find_split(idx, candidates,
    node_block)`` gets the node's ascending row indices, its candidate
    columns and the node's block.
    """
    n_features = X.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    in_left = np.zeros(X.shape[0], dtype=bool)  # go-left flags, valid only at the rows of the node just split

    def alloc() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def splittable(idx: np.ndarray, depth: int) -> bool:
        return depth < max_depth and idx.size >= 2 and np.ptp(target[idx]) != 0.0

    root = alloc()
    idx = np.arange(X.shape[0])
    stack = [(root, idx, 0, block if splittable(idx, 0) else None)]  # a node without a block is a leaf
    while stack:
        node, idx, depth, node_block = stack.pop()
        choice = None
        if node_block is not None:
            if max_features is not None and max_features < n_features:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                candidates = np.arange(n_features)
            choice = find_split(idx, candidates, node_block)
        if choice is None:
            value[node] = float(target[idx].mean()) if leaf_value is None else leaf_value(idx)
            continue
        go_left = X[idx, choice.column] <= choice.threshold
        feature[node] = choice.column
        threshold[node] = choice.threshold
        left_id, right_id = alloc(), alloc()
        left[node] = left_id
        right[node] = right_id
        left_idx, right_idx = idx[go_left], idx[~go_left]
        left_ok, right_ok = splittable(left_idx, depth + 1), splittable(right_idx, depth + 1)
        left_block = right_block = None
        if left_ok or right_ok:
            in_left[idx] = go_left
            keep = in_left[node_block[0]]
            left_block = _compress(node_block, keep) if left_ok else None
            right_block = _compress(node_block, ~keep) if right_ok else None
        stack.append((right_id, right_idx, depth + 1, right_block))
        stack.append((left_id, left_idx, depth + 1, left_block))  # popped first: left before right
    return TreeArrays(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


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


def _gini_best_cut(total, n, n_left, sum_left, parent, valid):
    n_right = n - n_left
    sum_right = total - sum_left
    weighted = (
        n_left * _gini_from_counts(sum_left, n_left)
        + n_right * _gini_from_counts(sum_right, n_right)
    ) / n
    weighted[~valid] = np.inf
    j = np.argmin(weighted, axis=1)  # first optimum: lowest threshold
    return j, parent - weighted[np.arange(j.size), j]


def _sse_best_cut(total, n, n_left, sum_left, parent, valid):
    sum_right = total - sum_left
    score = sum_left * sum_left / n_left + sum_right * sum_right / (n - n_left)
    score[~valid] = -np.inf
    j = np.argmax(score, axis=1)  # first optimum: lowest threshold
    return j, score[np.arange(j.size), j] - parent


# A criterion is a pair (parent term, best cut): parent_term(total, n) scores
# the node and best_cut(total, n, n_left, sum_left, parent, valid) takes one
# row of left-hand sums per candidate column, with valid marking the cuts
# between distinct values, and returns per column the position and gain of
# the first best valid cut (gain -inf where a column has none).  Each
# criterion picks with its own argmin/argmax: gini on 0/1 labels and SSE rank
# splits alike in exact arithmetic, but rounding breaks near-ties
# differently.
GINI = (_gini_from_counts, _gini_best_cut)  # class impurity of 0/1 labels
SSE = (lambda total, n: total * total / n, _sse_best_cut)  # sum-of-squares reduction of a real target


def make_exhaustive_finder(target: np.ndarray, criterion):
    """Exhaustive split: best midpoint threshold of any candidate column by criterion.

    The finder reads the node's block from ``grow_tree`` (see the module
    docstring); ``idx`` holds the node's at least two row indices in
    ascending order.
    """
    parent_term, best_cut = criterion

    def find(idx: np.ndarray, candidates: np.ndarray, block: tuple[np.ndarray, np.ndarray]) -> _SplitChoice | None:
        n = idx.size
        total = target[idx].sum()
        parent = parent_term(total, n)
        rows, xs = block
        if candidates.size < rows.shape[0]:
            rows, xs = rows[candidates], xs[candidates]
        sum_left = np.cumsum(target[rows], axis=1)[:, :-1]
        j, gain = best_cut(total, n, np.arange(1.0, n), sum_left, parent, xs[:, :-1] < xs[:, 1:])
        c = int(np.argmax(gain))  # first maximum: lowest column
        if gain[c] <= 0.0:
            return None
        cut = j[c]
        thr = (xs[c, cut] + xs[c, cut + 1]) / 2.0
        return _SplitChoice(column=int(candidates[c]), threshold=float(thr), gain=float(gain[c]))

    return find


def make_random_entropy_finder(y: np.ndarray, rng: np.random.Generator):
    """Extremely-randomized split: one uniform threshold per candidate column.

    The finder reads the node's block from ``grow_tree``: a column's range is
    its first and last sorted value, and the rows left of a threshold are a
    prefix of its sorted row ids, whose 0/1 labels sum exactly in any order.
    """

    def find(idx: np.ndarray, candidates: np.ndarray, block: tuple[np.ndarray, np.ndarray]) -> _SplitChoice | None:
        n = idx.size
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
class DecisionTreeState:
    kind = "decision_tree"
    tree: TreeArrays

    def score(self, X: np.ndarray) -> np.ndarray:
        return self.tree.apply(X)

    def relevant_columns(self, x: np.ndarray, background: np.ndarray) -> np.ndarray:
        return self.tree.relevant_columns(x, background)


def _fit_decision_tree(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> DecisionTreeState:
    rng = np.random.default_rng(seed)
    tree = grow_tree(
        X,
        y,
        max_depth=hyper["max_depth"],
        max_features=min(hyper["max_features"], X.shape[1]),
        rng=rng,
        find_split=make_exhaustive_finder(y, GINI),
        block=sort_columns(X),
    )
    return DecisionTreeState(tree=tree)


register_family(
    "DecisionTree",
    _fit_decision_tree,
    defaults={"max_depth": 10, "max_features": 5},
    validators={"max_depth": positive_int, "max_features": positive_int},
    state_cls=DecisionTreeState,
)
