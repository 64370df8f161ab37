"""Gradient boosting on logistic loss with depth-limited regression trees.

Round r fits a tree to the loss gradient (label minus predicted
probability) by variance reduction and assigns each leaf a Newton step
sum(g) / sum(p(1-p)); the raw score starts at the training base-rate
log-odds and accumulates learning_rate times each tree's output.  Zero
rounds therefore degenerate to the majority-class predictor.

A round's gradient and hessian are the two rows of one (2, n) buffer,
rewritten in place each round, so the split finder is made once per fit and
a leaf gets both sums from one gather and one row-wise ``np.add.reduce``
(``_leaf_sums``), with the bits of summing each row on its own.  Each leaf
records its rows and value; after the tree is grown, one scatter writes the
round's step for every row, which is then scaled and added to the raw score
in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opentrend.learners.base import TreeSum, positive_int, positive_number, register_family, sigmoid
from opentrend.learners.trees import SSE, TreeArrays, grow_tree, make_exhaustive_finder, sort_columns, tie_span

_HESSIAN_FLOOR = 1e-12


@dataclass(eq=False)
class BoostedTreesState(TreeSum):
    kind = "boosted_trees"
    base_score: float
    learning_rate: float
    trees: list[TreeArrays]

    def tree_sum(self):
        """The raw score, base score plus learning rate times each tree, through the sigmoid."""
        return self.base_score, self.learning_rate, self.trees, sigmoid


def _leaf_sums(pairs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The gradient and hessian sums of one leaf's rows: one gather of both rows of ``pairs``, one row-wise add.

    Each (2, k) row is reduced on its own by numpy's pairwise sum, so the
    sums have the bits of ``gradient[idx].sum()`` and ``hessian[idx].sum()``.
    """
    return np.add.reduce(pairs.take(idx, axis=1), axis=1)


def _fit_boosted_trees(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> BoostedTreesState:
    base_rate = float(y.mean())
    base_score = float(np.log(base_rate / (1.0 - base_rate)))  # single-class y never reaches here
    z = np.full(X.shape[0], base_score)
    lr = float(hyper["learning_rate"])
    trees: list[TreeArrays] = []
    block = sort_columns(X)  # the features never change, only the target: one sort serves every round
    criterion = SSE._replace(tied=tie_span(block))  # and so do the columns whose cuts can tie
    pairs = np.empty((2, X.shape[0]))  # each round's gradient and hessian, rewritten in place
    gradient, hessian = pairs
    find_split = make_exhaustive_finder(gradient, criterion)  # reads the gradient row as each round leaves it
    leaves: list[tuple[np.ndarray, float]] = []  # the current round's leaves: row indices and value

    def leaf_value(idx: np.ndarray) -> float:
        g, h = _leaf_sums(pairs, idx)
        value = float(g / (h + _HESSIAN_FLOOR))
        leaves.append((idx, value))
        return value

    step = np.empty(X.shape[0])  # each row's leaf value in the current round's tree
    for _ in range(hyper["iterations"]):
        p = sigmoid(z)
        np.subtract(y, p, out=gradient)
        np.subtract(1.0, p, out=hessian)
        hessian *= p  # p * (1 - p): a product has the same bits in either order
        leaves.clear()
        tree = grow_tree(
            X,
            gradient,
            max_depth=hyper["max_depth"],
            candidates=None,
            find_split=find_split,
            leaf_value=leaf_value,
            block=block,
        ).tree
        trees.append(tree)
        rows, values = zip(*leaves)
        # the leaves partition the rows, so this is tree.apply(X)
        step[np.concatenate(rows)] = np.repeat(values, [r.size for r in rows])
        step *= lr
        z += step
    return BoostedTreesState(base_score=base_score, learning_rate=lr, trees=trees)


register_family(
    "GradientBoostedTrees",
    _fit_boosted_trees,
    defaults={"iterations": 100, "max_depth": 6, "learning_rate": 0.3},
    validators={
        "iterations": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
        "max_depth": positive_int,
        "learning_rate": lambda v: positive_number(v) and v <= 10,
    },
    state_cls=BoostedTreesState,
)
