"""Extremely-randomized tree ensemble (random-threshold splits, no bootstrap).

Every tree sees the whole training set; randomness enters only through the
candidate-column draw and the uniform threshold per candidate.  Tree t is
grown from a generator seeded with (spec seed, t), so the forest is
reproducible and could be built in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from opentrend.learners.base import positive_int, register_family
from opentrend.learners.trees import (
    TreeArrays,
    _UNBOUNDED_DEPTH,
    grow_tree,
    make_random_entropy_finder,
    sort_columns,
)


@dataclass(eq=False)
class ExtraTreesState:
    kind = "extra_trees"
    trees: list[TreeArrays]

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a forest needs at least one tree")

    def score(self, X: np.ndarray) -> np.ndarray:
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.apply(X)
        return total / len(self.trees)



def _fit_extra_trees(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> ExtraTreesState:
    n_features = X.shape[1]
    max_features = max(1, int(math.sqrt(n_features) + 0.5))
    block = sort_columns(X)  # the rows never change, only the draws: one sort serves every tree
    trees = []
    for t in range(hyper["n_trees"]):
        rng = np.random.default_rng([seed, t])
        trees.append(
            grow_tree(
                X,
                y,
                max_depth=_UNBOUNDED_DEPTH,
                max_features=max_features,
                rng=rng,
                find_split=make_random_entropy_finder(y, rng),
                block=block,
            )
        )
    return ExtraTreesState(trees=trees)


register_family(
    "ExtraTrees",
    _fit_extra_trees,
    defaults={"n_trees": 1000},
    validators={"n_trees": positive_int},
    state_cls=ExtraTreesState,
)
