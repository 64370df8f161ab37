"""k-nearest-neighbor voting on Euclidean distance.

The score is the fraction of positive labels among the k closest training
rows.  Distance ties break by training-row index: of the rows at the k-th
smallest distance, the lowest-index ones are taken, exactly the set the
first k entries of a stable argsort give, so predictions cannot depend on
memory layout or chance.

Query rows are scored in blocks of about ``_BLOCK_TERMS`` squared-difference
terms (block rows x training rows x columns), so memory stays bounded
whatever the query and training sizes; each row's squared distances are the
same ``einsum`` reduction over its own columns in any block.  Neighbours are
picked without a full sort: ``np.partition`` finds the k-th smallest distance,
then every row strictly closer is taken, then the lowest-index rows at that
distance fill what is left of k.  The score is that count of positive labels
divided by k, the bits a mean over the k labels gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opentrend.learners.base import positive_int, register_family

_BLOCK_TERMS = 1 << 16  # squared-difference terms per query block: 512 KB of float64


@dataclass(eq=False)
class KNearestState:
    kind = "k_nearest"
    k: int
    train_X: np.ndarray
    train_y: np.ndarray

    def __post_init__(self) -> None:
        if not positive_int(self.k):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")

    def check_columns(self, n_columns: int) -> None:
        """Refuse training rows that are not an (m, n_columns) matrix with m >= 1 and m 0/1 labels."""
        m = self.train_X.shape[0] if self.train_X.ndim == 2 else 0
        if m < 1 or self.train_X.shape != (m, n_columns):
            raise ValueError(f"train_X must have shape (m, {n_columns}) with m >= 1, got {self.train_X.shape}")
        if self.train_y.shape != (m,) or not np.all((self.train_y == 0) | (self.train_y == 1)):
            raise ValueError(f"train_y must hold {m} labels of 0 or 1, got shape {self.train_y.shape}")

    def score(self, X: np.ndarray) -> np.ndarray:
        k = min(self.k, self.train_X.shape[0])
        positive = self.train_y == 1
        rows = max(1, _BLOCK_TERMS // self.train_X.size)  # a model has a training row and a column
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], rows):
            deltas = X[start : start + rows, None, :] - self.train_X[None, :, :]
            d2 = np.einsum("qnd,qnd->qn", deltas, deltas)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            nearest = d2 < kth
            tied = d2 == kth
            # the lowest-index rows at the k-th distance fill what the closer ones leave of k
            room = k - np.count_nonzero(nearest, axis=1, keepdims=True)
            nearest |= tied & (np.cumsum(tied, axis=1) <= room)
            out[start : start + rows] = np.count_nonzero(nearest & positive, axis=1) / k
        return out


def _fit_k_nearest(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> KNearestState:
    return KNearestState(k=hyper["k"], train_X=X.copy(), train_y=y.copy())


register_family(
    "KNearest",
    _fit_k_nearest,
    defaults={"k": 5},
    validators={"k": positive_int},
    state_cls=KNearestState,
)
