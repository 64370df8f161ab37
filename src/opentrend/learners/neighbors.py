"""k-nearest-neighbor voting on Euclidean distance.

The score is the fraction of positive labels among the k closest training
rows.  Distance ties break by training-row index (stable sort), so
predictions cannot depend on memory layout or chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opentrend.learners.base import positive_int, register_family

_CHUNK_ROWS = 1024


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
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start : start + _CHUNK_ROWS]
            deltas = chunk[:, None, :] - self.train_X[None, :, :]
            d2 = np.einsum("qnd,qnd->qn", deltas, deltas)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            out[start : start + _CHUNK_ROWS] = self.train_y[nearest].mean(axis=1)
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
