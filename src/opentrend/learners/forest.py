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

from opentrend.learners.base import TreeSum, positive_int, register_family
from opentrend.learners.trees import (
    TreeArrays,
    _UNBOUNDED_DEPTH,
    grow_tree,
    make_random_entropy_finder,
    random_candidates,
    sort_columns,
)


@dataclass(eq=False)
class ExtraTreesState(TreeSum):
    kind = "extra_trees"
    trees: list[TreeArrays]

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a forest needs at least one tree")

    def tree_sum(self):
        """The trees' mean."""
        return 0.0, 1.0, self.trees, lambda total: total / len(self.trees)


def _fit_extra_trees(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> ExtraTreesState:
    n_features = X.shape[1]
    max_features = max(1, int(math.sqrt(n_features) + 0.5))
    block = sort_columns(X)  # the rows never change, only the draws: one sort serves every tree
    columns = np.ascontiguousarray(X.T)  # and one transposed copy
    trees = []
    for t in range(hyper["n_trees"]):
        rng = np.random.default_rng([seed, t])
        trees.append(
            grow_tree(
                columns,
                y,
                max_depth=_UNBOUNDED_DEPTH,
                candidates=random_candidates(rng, n_features, max_features),  # interleaves with the finder's draws
                find_split=make_random_entropy_finder(y, rng),
                block=block,
            ).tree
        )
    return ExtraTreesState(trees=trees)


register_family(
    "ExtraTrees",
    _fit_extra_trees,
    defaults={"n_trees": 1000},
    validators={"n_trees": positive_int},
    state_cls=ExtraTreesState,
)
