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

from opentrend.learners.base import positive_int, positive_number, register_family, sigmoid
from opentrend.learners.trees import SSE, TreeArrays, grow_tree, make_exhaustive_finder, sort_columns

_HESSIAN_FLOOR = 1e-12


@dataclass(eq=False)
class BoostedTreesState:
    kind = "boosted_trees"
    base_score: float
    learning_rate: float
    trees: list[TreeArrays]

    def raw(self, X: np.ndarray) -> np.ndarray:
        z = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            z += self.learning_rate * tree.apply(X)
        return z

    def score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw(X))



def _fit_boosted_trees(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> BoostedTreesState:
    base_rate = float(y.mean())
    base_score = float(np.log(base_rate / (1.0 - base_rate)))  # single-class y never reaches here
    z = np.full(X.shape[0], base_score)
    lr = float(hyper["learning_rate"])
    trees: list[TreeArrays] = []
    block = sort_columns(X)  # the features never change, only the target: one sort serves every round
    for _ in range(hyper["iterations"]):
        p = sigmoid(z)
        gradient = y - p
        hessian = p * (1.0 - p)

        def leaf_value(idx: np.ndarray) -> float:
            return float(gradient[idx].sum() / (hessian[idx].sum() + _HESSIAN_FLOOR))

        tree = grow_tree(
            X,
            gradient,
            max_depth=hyper["max_depth"],
            max_features=None,
            rng=None,
            find_split=make_exhaustive_finder(gradient, SSE),
            leaf_value=leaf_value,
            block=block,
        )
        trees.append(tree)
        z = z + lr * tree.apply(X)
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
