"""L2-regularized logistic regression fitted by damped Newton iterations.

Objective (bias unpenalized):

    L(w, b) = sum_i [softplus(z_i) - y_i z_i] + (l2 / 2) ||w||^2,   z = Xw + b

The Hessian is positive definite for l2 > 0, so Newton steps with simple
backtracking converge; iteration stops once the gradient norm falls below
the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opentrend.learners.base import positive_int, positive_number, register_family, sigmoid, softplus

_CURVATURE_FLOOR = 1e-12


def loss_and_gradient(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Analytic loss, weight gradient, and bias gradient at (w, b)."""
    z = X @ w + b
    loss = float(softplus(z).sum() - y @ z + 0.5 * l2 * (w @ w))
    p = sigmoid(z)
    grad_w = X.T @ (p - y) + l2 * w
    grad_b = float((p - y).sum())
    return loss, grad_w, grad_b


@dataclass(eq=False)
class LogisticRegressionState:
    kind = "logistic_regression"
    weights: np.ndarray
    bias: float

    def raw(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw(X))


def _fit_logistic_regression(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> LogisticRegressionState:
    n, d = X.shape
    l2 = float(hyper["l2"])
    tol = float(hyper["tol"])
    w = np.zeros(d)
    b = 0.0
    loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, l2)
    for _ in range(hyper["max_iter"]):
        grad = np.concatenate([grad_w, [grad_b]])
        if float(np.linalg.norm(grad)) <= tol:
            break
        p = sigmoid(X @ w + b)
        s = np.maximum(p * (1.0 - p), _CURVATURE_FLOOR)
        hessian = np.empty((d + 1, d + 1))
        Xs = X * s[:, None]
        hessian[:d, :d] = X.T @ Xs + l2 * np.eye(d)
        hessian[:d, d] = Xs.sum(axis=0)
        hessian[d, :d] = hessian[:d, d]
        hessian[d, d] = s.sum()
        step = np.linalg.solve(hessian, grad)
        eta = 1.0
        for _ in range(60):  # backtrack until the step actually descends
            w_new = w - eta * step[:d]
            b_new = b - eta * step[d]
            loss_new, gw_new, gb_new = loss_and_gradient(w_new, b_new, X, y, l2)
            if loss_new <= loss:
                break
            eta *= 0.5
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
    return LogisticRegressionState(weights=w, bias=b)


register_family(
    "LogisticRegression",
    _fit_logistic_regression,
    defaults={"l2": 1.0, "tol": 1e-6, "max_iter": 1000},
    validators={
        "l2": positive_number,
        "tol": positive_number,
        "max_iter": positive_int,
    },
    state_cls=LogisticRegressionState,
)
