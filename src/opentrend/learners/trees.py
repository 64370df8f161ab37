"""Binary decision trees on numeric features.

One growth engine serves three split strategies: the exhaustive gini CART
used by DecisionTree, the random-threshold entropy splits of the
extremely-randomized ensemble, and the exhaustive variance-reduction splits
of boosting's regression trees.  Nodes expand depth-first, left child
first, so any random draws happen in a fixed, reproducible order.

Tie-breaking is explicit everywhere: candidate columns are scanned in
ascending index order and only a strictly better gain displaces the
incumbent, so equal-gain ties resolve to the lowest column index; within a
column, thresholds are scanned in ascending order and the first optimum
wins, i.e. the lowest threshold.
"""

from __future__ import annotations

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

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeArrays":
        return cls(
            feature=np.array(d["feature"], dtype=np.int64),
            threshold=np.array(d["threshold"], dtype=np.float64),
            left=np.array(d["left"], dtype=np.int64),
            right=np.array(d["right"], dtype=np.int64),
            value=np.array(d["value"], dtype=np.float64),
        )


@dataclass(frozen=True)
class _SplitChoice:
    column: int
    threshold: float
    gain: float


def grow_tree(
    X: np.ndarray,
    *,
    max_depth: int,
    max_features: int | None,
    rng: np.random.Generator | None,
    find_split: Callable[[np.ndarray, np.ndarray], _SplitChoice | None],
    leaf_value: Callable[[np.ndarray], float],
    is_pure: Callable[[np.ndarray], bool],
) -> TreeArrays:
    """Grow one tree over row indices of X with pluggable split logic."""
    n_features = X.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def alloc() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = alloc()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if depth >= max_depth or idx.size < 2 or is_pure(idx):
            value[node] = leaf_value(idx)
            continue
        if max_features is not None and max_features < n_features:
            candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
        else:
            candidates = np.arange(n_features)
        choice = find_split(idx, candidates)
        if choice is None:
            value[node] = leaf_value(idx)
            continue
        go_left = X[idx, choice.column] <= choice.threshold
        feature[node] = choice.column
        threshold[node] = choice.threshold
        left_id, right_id = alloc(), alloc()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, idx[~go_left], depth + 1))
        stack.append((left_id, idx[go_left], depth + 1))  # popped first: left before right
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


def _entropy_from_counts(n_ones, n_total):
    p = n_ones / n_total
    out = np.zeros_like(np.asarray(p, dtype=np.float64))
    for q in (p, 1.0 - p):
        pos = np.asarray(q) > 0
        out = out - np.where(pos, q * np.log(np.where(pos, q, 1.0)), 0.0)
    return out


def _best_cut_sorted(xs: np.ndarray) -> np.ndarray:
    """Positions j where a split between xs[j] and xs[j+1] is real (values differ)."""
    return np.nonzero(xs[:-1] < xs[1:])[0]


def make_gini_finder(X: np.ndarray, y: np.ndarray):
    """Exhaustive CART split: best midpoint threshold by gini gain."""

    def find(idx: np.ndarray, candidates: np.ndarray) -> _SplitChoice | None:
        y_node = y[idx]
        n = idx.size
        parent = _gini_from_counts(y_node.sum(), n)
        best: _SplitChoice | None = None
        for col in candidates:
            xs = X[idx, col]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            cuts = _best_cut_sorted(xs_sorted)
            if cuts.size == 0:
                continue
            ones = np.cumsum(y_node[order])
            n_left = cuts + 1.0
            n_right = n - n_left
            ones_left = ones[cuts]
            ones_right = ones[-1] - ones_left
            weighted = (
                n_left * _gini_from_counts(ones_left, n_left)
                + n_right * _gini_from_counts(ones_right, n_right)
            ) / n
            j = int(np.argmin(weighted))  # first optimum: lowest threshold
            gain = parent - float(weighted[j])
            if gain > 0.0 and (best is None or gain > best.gain):
                thr = (xs_sorted[cuts[j]] + xs_sorted[cuts[j] + 1]) / 2.0
                best = _SplitChoice(column=int(col), threshold=float(thr), gain=gain)
        return best

    return find


def make_random_entropy_finder(X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
    """Extremely-randomized split: one uniform threshold per candidate column."""

    def find(idx: np.ndarray, candidates: np.ndarray) -> _SplitChoice | None:
        y_node = y[idx]
        n = idx.size
        parent = float(_entropy_from_counts(y_node.sum(), n))
        best: _SplitChoice | None = None
        for col in candidates:
            xs = X[idx, col]
            lo = float(xs.min())
            hi = float(xs.max())
            if lo == hi:
                continue
            thr = float(rng.uniform(lo, hi))
            go_left = xs <= thr
            n_left = int(go_left.sum())
            if n_left == 0 or n_left == n:
                continue
            ones_left = float(y_node[go_left].sum())
            ones_right = float(y_node.sum()) - ones_left
            child = (
                n_left * float(_entropy_from_counts(ones_left, n_left))
                + (n - n_left) * float(_entropy_from_counts(ones_right, n - n_left))
            ) / n
            gain = parent - child
            if gain > 0.0 and (best is None or gain > best.gain):
                best = _SplitChoice(column=int(col), threshold=thr, gain=gain)
        return best

    return find


def make_sse_finder(X: np.ndarray, target: np.ndarray):
    """Exhaustive regression split: maximal sum-of-squares reduction on target."""

    def find(idx: np.ndarray, candidates: np.ndarray) -> _SplitChoice | None:
        t_node = target[idx]
        n = idx.size
        total = t_node.sum()
        parent_score = total * total / n
        best: _SplitChoice | None = None
        for col in candidates:
            xs = X[idx, col]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            cuts = _best_cut_sorted(xs_sorted)
            if cuts.size == 0:
                continue
            sums = np.cumsum(t_node[order])
            n_left = cuts + 1.0
            sum_left = sums[cuts]
            sum_right = total - sum_left
            score = sum_left * sum_left / n_left + sum_right * sum_right / (n - n_left)
            j = int(np.argmax(score))  # first optimum: lowest threshold
            gain = float(score[j]) - parent_score
            if gain > 0.0 and (best is None or gain > best.gain):
                thr = (xs_sorted[cuts[j]] + xs_sorted[cuts[j] + 1]) / 2.0
                best = _SplitChoice(column=int(col), threshold=float(thr), gain=gain)
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

    def to_dict(self) -> dict:
        return {"tree": self.tree.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTreeState":
        return cls(tree=TreeArrays.from_dict(d["tree"]))


def _fit_decision_tree(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> DecisionTreeState:
    rng = np.random.default_rng(seed)
    tree = grow_tree(
        X,
        max_depth=hyper["max_depth"],
        max_features=min(hyper["max_features"], X.shape[1]),
        rng=rng,
        find_split=make_gini_finder(X, y),
        leaf_value=lambda idx: float(y[idx].mean()),
        is_pure=lambda idx: bool(np.ptp(y[idx]) == 0.0),
    )
    return DecisionTreeState(tree=tree)


register_family(
    "DecisionTree",
    _fit_decision_tree,
    defaults={"max_depth": 10, "max_features": 5},
    validators={"max_depth": positive_int, "max_features": positive_int},
    state_cls=DecisionTreeState,
)
