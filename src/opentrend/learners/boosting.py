"""Gradient boosting on logistic loss with depth-limited regression trees.

Round r fits a tree to the loss gradient (label minus predicted
probability) by variance reduction and assigns each leaf a Newton step
sum(g) / sum(p(1-p)); the raw score starts at the training base-rate
log-odds and accumulates learning_rate times each tree's output.  Zero
rounds therefore degenerate to the majority-class predictor.
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


def _fit_boosted_trees(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> BoostedTreesState:
    base_rate = float(y.mean())
    base_score = float(np.log(base_rate / (1.0 - base_rate)))  # single-class y never reaches here
    z = np.full(X.shape[0], base_score)
    lr = float(hyper["learning_rate"])
    trees: list[TreeArrays] = []
    block = sort_columns(X)  # the features never change, only the target: one sort serves every round
    criterion = SSE._replace(tied=tie_span(block))  # and so do the columns whose cuts can tie
    step = np.empty(X.shape[0])  # each row's leaf value in the current round's tree
    for _ in range(hyper["iterations"]):
        p = sigmoid(z)
        gradient = y - p
        hessian = p * (1.0 - p)

        def leaf_value(idx: np.ndarray) -> float:
            value = float(gradient[idx].sum() / (hessian[idx].sum() + _HESSIAN_FLOOR))
            step[idx] = value  # the leaves partition the rows, as tree.apply(X) would
            return value

        tree = grow_tree(
            X,
            gradient,
            max_depth=hyper["max_depth"],
            candidates=None,
            find_split=make_exhaustive_finder(gradient, criterion),
            leaf_value=leaf_value,
            block=block,
        ).tree
        trees.append(tree)
        z = z + lr * step
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
