"""Gaussian naive Bayes: per-class feature means/variances, smoothed.

Variances get the usual additive smoothing of 1e-9 times the largest
overall feature variance (floored at an absolute 1e-9 so a fully constant
matrix still scores without dividing by zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opentrend.learners.base import register_family

_VAR_SMOOTHING = 1e-9


@dataclass(eq=False)
class GaussianNBState:
    kind = "gaussian_nb"
    log_prior: np.ndarray  # (2,)
    theta: np.ndarray  # (2, d)
    var: np.ndarray  # (2, d)

    def check_columns(self, n_columns: int) -> None:
        """Refuse priors, means or variances not shaped for two classes and n_columns, or a variance <= 0."""
        shapes = (self.log_prior.shape, self.theta.shape, self.var.shape)
        want = ((2,), (2, n_columns), (2, n_columns))
        if shapes != want:
            raise ValueError(f"log_prior, theta and var must have shapes {want}, got {shapes}")
        if not np.all(np.isfinite(self.var) & (self.var > 0)):
            raise ValueError("var must be finite and > 0")

    def score(self, X: np.ndarray) -> np.ndarray:
        jll = np.empty((X.shape[0], 2))
        for c in (0, 1):
            centered = X - self.theta[c]
            jll[:, c] = self.log_prior[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * self.var[c]) + centered * centered / self.var[c], axis=1
            )
        peak = jll.max(axis=1, keepdims=True)
        likes = np.exp(jll - peak)
        return likes[:, 1] / likes.sum(axis=1)


def _fit_gaussian_nb(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> GaussianNBState:
    epsilon = max(_VAR_SMOOTHING * float(X.var(axis=0).max()), _VAR_SMOOTHING)
    theta = np.empty((2, X.shape[1]))
    var = np.empty((2, X.shape[1]))
    prior = np.empty(2)
    for c in (0, 1):
        rows = X[y == c]
        theta[c] = rows.mean(axis=0)
        var[c] = rows.var(axis=0) + epsilon
        prior[c] = rows.shape[0] / X.shape[0]
    return GaussianNBState(log_prior=np.log(prior), theta=theta, var=var)


register_family(
    "GaussianNB",
    _fit_gaussian_nb,
    defaults={},
    validators={},
    state_cls=GaussianNBState,
)
