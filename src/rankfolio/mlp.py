"""A small fully connected regressor: ReLU hidden layers, identity output,
trained with Adam on mean squared error. Written against plain numpy so the
gradients can be verified against finite differences.

``mlp_train`` trains a stack of networks in lockstep, one per training block;
the rank-forecast strategy trains its refits in blocks of 8 consecutive
refits this way. ``loss_and_gradients`` serves one network and a stack alike,
and ``MlpModel.forward`` a batch of rows and a stack of batches alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .optim import column_sums

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpModel:
    """Parameters of the network, or of a stack of networks (a leading stack
    axis on every weight and bias, one loss curve per network);
    ``layer_sizes`` includes input and output."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss_curve: list[float] = field(default_factory=list)

    @classmethod
    def initialize(cls, layer_sizes, seed: int) -> "MlpModel":
        """Uniform init in +-sqrt(6 / (fan_in + fan_out)), weights then bias
        per layer, all drawn from one generator seeded with ``seed``."""
        sizes = tuple(int(s) for s in layer_sizes)
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(layer_sizes=sizes, weights=weights, biases=biases)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Batch forward pass on (m, d) rows, a single length-d vector or a
        stack (..., m, d) of row batches, which gives (..., m, k): each
        (m, d) slice of a stack is its own BLAS call, so it has the bytes of
        its own pass."""
        x = np.asarray(inputs, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        out = _activations(self, x)[-1]
        return out[0] if single else out

    def unstack(self) -> list["MlpModel"]:
        """The networks of a stacked model (weights (B, fan_in, fan_out)),
        each with views into this model's parameters and its own loss curve."""
        return [MlpModel(self.layer_sizes, [w[b] for w in self.weights],
                         [c[b] for c in self.biases], curve)
                for b, curve in enumerate(self.loss_curve)]


class _Workspace:
    """The arrays that one forward and backward pass over ``x`` writes: each
    layer's output, the loss gradient w.r.t. each layer's pre-activation
    (the output layer's holds the residual first), each hidden layer's ReLU
    mask and the squared residuals. ``mlp_train`` makes one for the full
    batch and reuses it every step: fresh arrays each step let the heap
    shrink and fault back in, so a run's time varied twofold."""

    def __init__(self, model: MlpModel, x: np.ndarray):
        lead = (*np.broadcast_shapes(x.shape[:-2], model.weights[0].shape[:-2]),
                x.shape[-2])
        widths = [w.shape[-1] for w in model.weights]
        self.outputs = [np.empty((*lead, n)) for n in widths]
        self.deltas = [np.empty((*lead, n)) for n in widths]
        # masks hold 1.0 and 0.0: a bool mask costs a cast buffer per step
        self.masks = [np.empty((*lead, n)) for n in widths[:-1]]
        self.squares = np.empty((*lead, widths[-1]))


def _activations(model: MlpModel, x: np.ndarray,
                 outputs: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """``x``, then each layer's output, written into ``outputs`` if given."""
    acts = [x]
    last = len(model.weights) - 1
    outputs = outputs or [None] * len(model.weights)
    for i, (w, b, z) in enumerate(zip(model.weights, model.biases, outputs)):
        z = np.matmul(acts[-1], w, out=z)
        z += b[..., None, :]
        if i < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def _layer_views(sizes: tuple[int, ...], flat: np.ndarray):
    """Weight and bias views into the last axis of ``flat``, in
    ``initialize``'s draw order; a (B, P) ``flat`` gives stacked views."""
    lead = flat.shape[:-1]
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[..., start:stop].reshape(*lead, fan_in, fan_out))
        biases.append(flat[..., stop:stop + fan_out])
        start = stop + fan_out
    return weights, biases


def loss_and_gradients(model: MlpModel, features: np.ndarray,
                       targets: np.ndarray, out=None, work=None):
    """MSE over all output elements and its gradients w.r.t. every parameter.

    The model is one network on (rows, d) features or a stack of B networks
    (weights (B, fan_in, fan_out), biases (B, fan_out)) on (B, rows, d)
    features, which gives B losses. Returns (loss, weight_grads, bias_grads)
    with grads ordered like the model's parameter lists. They are fresh
    arrays unless ``out`` gives a (weight_grads, bias_grads) pair of
    parameter-shaped arrays to fill. ``work``, a ``_Workspace`` for these
    features, holds the pass's intermediates; by default they are fresh.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    work = _Workspace(model, x) if work is None else work
    acts = _activations(model, x, work.outputs)
    delta = np.subtract(acts[-1], y, out=work.deltas[-1])  # the residual
    sq = np.multiply(delta, delta, out=work.squares)
    # each network's mean runs along one contiguous axis, as a flat mean
    # does; numpy's mean is this sum over the count
    flat = sq.reshape(*sq.shape[:-2], -1)
    loss = np.add.reduce(flat, axis=-1) / flat.shape[-1]
    delta *= 2.0 / (delta.shape[-2] * delta.shape[-1])
    w_grads, b_grads = out or ([np.empty_like(w) for w in model.weights],
                               [np.empty_like(b) for b in model.biases])
    for i in reversed(range(len(model.weights))):
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=w_grads[i])
        column_sums(delta, out=b_grads[i])
        if i > 0:
            active = np.greater(acts[i], 0.0, out=work.masks[i - 1])
            delta = np.matmul(delta, model.weights[i].swapaxes(-1, -2),
                              out=work.deltas[i - 1])
            delta *= active
    return loss, w_grads, b_grads


def mlp_train(features: np.ndarray, targets: np.ndarray, *,
              hidden: tuple[int, ...], epochs: int, learning_rate: float,
              batch_size: int, seed: int) -> MlpModel:
    """Train fresh networks on (already standardized) features.

    ``features`` (..., rows, d) and ``targets`` (..., rows, k) hold one
    training block per network: (rows, d) trains one network, a (B, rows, d)
    stack trains B of them. Every network starts from the same seeded init
    and sees the same batch order, so a stack trains in lockstep: one stacked
    forward/backward pass and one Adam update of the (B, P) parameter array
    per batch. Each slice of a stacked matmul is its own BLAS call, so every
    network comes out byte for byte as it would trained alone.

    ``batch_size = 0`` means full batch. The per-epoch training loss (before
    that epoch's updates) is recorded on ``model.loss_curve``, one list per
    network of a stack; a non-finite loss in any network aborts with the
    epoch in the message. The parameters live in one array that
    ``model.weights`` and ``model.biases`` are views into.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    init = MlpModel.initialize((x.shape[-1], *hidden, y.shape[-1]), seed)
    sizes, lead = init.layer_sizes, x.shape[:-2]
    flat = np.concatenate([np.append(w, b) for w, b in zip(init.weights, init.biases)])
    theta = np.tile(flat, (*lead, 1))
    model = MlpModel(sizes, *_layer_views(sizes, theta))
    grad, step, scale = np.empty((3, *theta.shape))
    grad_views = _layer_views(sizes, grad)
    m, v = np.zeros((2, *theta.shape))  # Adam moments
    rng = np.random.default_rng(seed)
    steps = 0

    rows = x.shape[-2]
    size = rows if batch_size == 0 else min(batch_size, rows)
    starts = range(0, rows, size)
    # a network's batch losses lie along the last axis, so each epoch's mean
    # runs along a contiguous axis, as the mean of a flat list does
    epoch_losses = np.empty((*lead, len(starts)))
    curves = np.empty((epochs, *lead))
    # the full batch's steps all write into one workspace; a minibatch's
    # step makes fresh arrays
    bx, by = x, y
    work = _Workspace(model, x) if size == rows else None
    for epoch in range(epochs):
        perm = rng.permutation(rows) if size < rows else None
        for j, start in enumerate(starts):
            if perm is not None:
                batch = perm[start: start + size]
                bx, by = x[..., batch, :], y[..., batch, :]
            loss = loss_and_gradients(model, bx, by, grad_views, work)[0]
            if not np.isfinite(loss).all():
                bad = np.ravel(loss)[np.argmin(np.isfinite(loss))]
                raise RuntimeError(f"training diverged at epoch {epoch}: loss={bad}")
            epoch_losses[..., j] = loss
            steps += 1
            bias1 = 1.0 - ADAM_BETA1 ** steps
            bias2 = 1.0 - ADAM_BETA2 ** steps
            # Adam on the whole array, with a per-tensor update's order of
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
        curves[epoch] = np.add.reduce(epoch_losses, axis=-1) / len(starts)
    model.loss_curve = np.moveaxis(curves, 0, -1).tolist()
    return model
