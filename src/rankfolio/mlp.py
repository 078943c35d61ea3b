"""A small fully connected regressor: ReLU hidden layers, identity output,
trained with Adam on mean squared error. Written against plain numpy so the
gradients can be verified against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .features import Normalizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpModel:
    """Parameters of the network; ``layer_sizes`` includes input and output."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int
    loss_curve: list[float] = field(default_factory=list)

    @classmethod
    def initialize(cls, layer_sizes, seed: int) -> "MlpModel":
        """Uniform init in +-sqrt(6 / (fan_in + fan_out)), weights then bias
        per layer, all drawn from one generator seeded with ``seed``."""
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes needs >= 2 positive entries")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(layer_sizes=sizes, weights=weights, biases=biases, seed=seed)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Batch forward pass; accepts (m, d) or a single length-d vector."""
        x = np.asarray(inputs, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        out = _activations(self, x)[-1]
        return out[0] if single else out


def _activations(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        acts.append(z if i == last else np.maximum(z, 0.0))
    return acts


def _layer_views(sizes: tuple[int, ...], flat: np.ndarray):
    """Weight and bias views into ``flat``, in ``initialize``'s draw order."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return weights, biases


def loss_and_gradients(model: MlpModel, features: np.ndarray,
                       targets: np.ndarray, out=None):
    """MSE over all output elements and its gradients w.r.t. every parameter.

    Returns (loss, weight_grads, bias_grads) with grads ordered like the
    model's parameter lists. They are fresh arrays unless ``out`` gives a
    (weight_grads, bias_grads) pair of parameter-shaped arrays to fill.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    acts = _activations(model, x)
    resid = acts[-1] - y
    loss = float((resid * resid).mean())
    delta = (2.0 / resid.size) * resid
    w_grads, b_grads = out or ([np.empty_like(w) for w in model.weights],
                               [np.empty_like(b) for b in model.biases])
    for i in reversed(range(len(model.weights))):
        np.matmul(acts[i].T, delta, out=w_grads[i])
        delta.sum(axis=0, out=b_grads[i])
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return loss, w_grads, b_grads


def mlp_train(features: np.ndarray, targets: np.ndarray,
              hidden: tuple[int, ...] = (20, 20), epochs: int = 200,
              learning_rate: float = 1e-3, batch_size: int = 0,
              seed: int = 10) -> MlpModel:
    """Train a fresh network on (already standardized) features.

    ``batch_size = 0`` means full batch. The per-epoch training loss (before
    that epoch's update) is recorded on ``model.loss_curve``; a non-finite
    loss aborts with the epoch in the message. The parameters live in one flat
    vector that ``model.weights`` and ``model.biases`` are views into.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("features and targets must be 2-d")
    if x.shape[0] != y.shape[0] or x.shape[0] < 1:
        raise ValueError("features and targets need matching row counts >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if (batch_size or 0) < 0:
        raise ValueError("batch_size must be >= 0 (0 = full batch)")

    model = MlpModel.initialize((x.shape[1], *hidden, y.shape[1]), seed)
    theta = np.concatenate([np.append(w, b) for w, b in zip(model.weights, model.biases)])
    model.weights, model.biases = _layer_views(model.layer_sizes, theta)
    grad, step, scale = np.empty((3, theta.size))
    grad_views = _layer_views(model.layer_sizes, grad)
    m, v = np.zeros((2, theta.size))  # Adam moments
    rng = np.random.default_rng(seed)
    steps = 0

    rows = x.shape[0]
    size = rows if batch_size in (0, None) else min(batch_size, rows)
    for epoch in range(epochs):
        if size == rows:
            batches = [(x, y)]
        else:
            perm = rng.permutation(rows)
            batches = [(x[perm[i: i + size]], y[perm[i: i + size]])
                       for i in range(0, rows, size)]
        epoch_losses = []
        for bx, by in batches:
            loss = loss_and_gradients(model, bx, by, grad_views)[0]
            epoch_losses.append(loss)
            if not math.isfinite(loss):
                raise RuntimeError(f"training diverged at epoch {epoch}: loss={loss}")
            steps += 1
            bias1 = 1.0 - ADAM_BETA1 ** steps
            bias2 = 1.0 - ADAM_BETA2 ** steps
            # Adam on the whole vector, with a per-tensor update's order of
            # operations so the result matches one bit for bit
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, grad, out=step)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=step),
                             grad, out=step)
            # theta -= learning_rate * (m / bias1) / (sqrt(v / bias2) + eps)
            np.multiply(learning_rate, np.divide(m, bias1, out=step), out=step)
            np.sqrt(np.divide(v, bias2, out=scale), out=scale)
            scale += ADAM_EPS
            theta -= np.divide(step, scale, out=step)
        model.loss_curve.append(float(np.mean(epoch_losses)))
    return model


def mlp_predict(model: MlpModel, feature_vec: np.ndarray,
                normalizer: Normalizer) -> np.ndarray:
    """Score vector for one raw feature vector (standardized internally)."""
    return model.forward(normalizer.transform(feature_vec))
