"""Feed-forward ReLU network with a sigmoid head, trained by momentum SGD.

Mini-batches of 32, learning rate 1e-3, momentum 0.9, an epoch cap, and an
early stop once the full-train loss has not improved for ``patience``
epochs.  He-scaled normal init and the per-epoch shuffle both come from the
spec seed, so training is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opentrend.learners.base import positive_int, positive_number, register_family, sigmoid, softplus


def loss_and_gradients(
    weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean binary cross-entropy and its gradients for every layer.

    weights[i] has shape (fan_in, fan_out); all layers but the last apply
    ReLU, the last produces the single pre-sigmoid logit.
    """
    activations = [X]
    pre = []
    a = X
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        activations.append(a)
    logits = activations[-1][:, 0]
    n = X.shape[0]
    loss = float((softplus(logits) - y * logits).mean())

    delta = ((sigmoid(logits) - y) / n)[:, None]
    grad_w: list[np.ndarray] = [np.empty(0)] * len(weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
    return loss, grad_w, grad_b


@dataclass(eq=False)
class MlpState:
    kind = "mlp"
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def raw(self, X: np.ndarray) -> np.ndarray:
        a = X
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b
            a = np.maximum(z, 0.0) if i < len(self.weights) - 1 else z
        return a[:, 0]

    def score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw(X))


def _init_layers(sizes: list[int], rng: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _fit_mlp(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int) -> MlpState:
    rng = np.random.default_rng(seed)
    sizes = [X.shape[1], *hyper["hidden_layers"], 1]
    weights, biases = _init_layers(sizes, rng)
    vel_w = [np.zeros_like(W) for W in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    lr = float(hyper["learning_rate"])
    momentum = float(hyper["momentum"])
    batch_size = hyper["batch_size"]
    patience = hyper["patience"]
    tol = float(hyper["tol"])

    best_loss = np.inf
    stale = 0
    n = X.shape[0]
    for _ in range(hyper["max_epochs"]):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            _, grad_w, grad_b = loss_and_gradients(weights, biases, X[batch], y[batch])
            for i in range(len(weights)):
                vel_w[i] = momentum * vel_w[i] - lr * grad_w[i]
                vel_b[i] = momentum * vel_b[i] - lr * grad_b[i]
                weights[i] = weights[i] + vel_w[i]
                biases[i] = biases[i] + vel_b[i]
        logits = MlpState(weights, biases).raw(X)
        epoch_loss = float((softplus(logits) - y * logits).mean())
        if epoch_loss < best_loss - tol:
            best_loss = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    return MlpState(weights=weights, biases=biases)


def _layers_ok(v) -> bool:
    return isinstance(v, (tuple, list)) and len(v) >= 1 and all(positive_int(h) for h in v)


register_family(
    "MLP",
    _fit_mlp,
    defaults={
        "hidden_layers": (128, 64, 32, 32, 16, 16, 8, 8),
        "learning_rate": 1e-3,
        "momentum": 0.9,
        "batch_size": 32,
        "max_epochs": 1000,
        "patience": 25,
        "tol": 1e-6,
    },
    validators={
        "hidden_layers": _layers_ok,
        "learning_rate": positive_number,
        "momentum": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v < 1,
        "batch_size": positive_int,
        "max_epochs": positive_int,
        "patience": positive_int,
        "tol": positive_number,
    },
    state_cls=MlpState,
)
