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

    def to_dict(self) -> dict:
        return {"k": self.k, "train_X": self.train_X.tolist(), "train_y": self.train_y.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "KNearestState":
        return cls(
            k=int(d["k"]),
            train_X=np.array(d["train_X"], dtype=np.float64),
            train_y=np.array(d["train_y"], dtype=np.float64),
        )


def _fit_k_nearest(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> KNearestState:
    return KNearestState(k=hyper["k"], train_X=X.copy(), train_y=y.copy())


register_family(
    "KNearest",
    _fit_k_nearest,
    defaults={"k": 5},
    validators={"k": positive_int},
    state_cls=KNearestState,
)
