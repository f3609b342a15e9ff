"""Gradient references for the tests.

fedsim trains through `models.local_train` and `models.train_lockstep`
and never needs a gradient on its own, nor a numerical one. The tests
check the SGD kernel against both, so the references live here: the exact
gradient of the training objective, the flat buffer `models._sgd_kernel`
writes, and central finite differences of the same objective computed from
the per-sample loss alone. `reference_sgd` is minibatch SGD in the
kernel's order of operations with every product in a fresh array: one lane
of either trainer must equal it bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from fedsim.models import (
    ArchDescriptor,
    Dataset,
    ParameterVector,
    _check_fit,
    _cross_entropy,
    _layers,
    _logits,
    _penalty,
    _sgd_kernel,
    seq_sum,
    unpack,
    weight_mask,
)


def _per_sample_ce(params: ParameterVector, arch: ArchDescriptor, data: Dataset) -> np.ndarray:
    _check_fit(arch, data, "data")
    logits, _ = _logits(unpack(params, arch), data.features)
    return _cross_entropy(logits, data.labels)[0]


def loss_and_gradient(
    params: ParameterVector,
    arch: ArchDescriptor,
    batch: Dataset,
    l2: float = 0.0,
) -> tuple[float, ParameterVector]:
    """Mean cross-entropy plus (l2/2)*||weights||^2 and its exact gradient.

    The quadratic penalty covers weight matrices only, never biases.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    _check_fit(arch, batch, "batch")
    grad = np.empty(arch.parameter_count)
    layers, grads = unpack(params, arch), _layers(grad, arch)
    [loss] = _sgd_kernel(layers, grads, batch.features, batch.labels, l2)
    loss += _penalty(params.values, weight_mask(arch), l2)
    return loss, ParameterVector(grad)


def central_difference(f: Callable[[np.ndarray], float], w: np.ndarray, eps: float) -> np.ndarray:
    """Central finite differences of scalar f at w: (f(w+e) - f(w-e)) / 2e."""
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    w = np.asarray(w, dtype=np.float64)
    out = np.empty_like(w)
    for i in range(w.shape[0]):
        hi = w.copy()
        lo = w.copy()
        hi[i] += eps
        lo[i] -= eps
        out[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return out


def finite_difference_gradient(
    params: ParameterVector,
    arch: ArchDescriptor,
    batch: Dataset,
    eps: float,
    l2: float = 0.0,
) -> ParameterVector:
    """Numerical gradient of the training objective, for checking the exact one."""

    def objective(w: np.ndarray) -> float:
        pv = ParameterVector(w)
        ce = seq_sum(_per_sample_ce(pv, arch, batch).tolist()) / len(batch)
        return ce + _penalty(pv.values, weight_mask(arch), l2)

    if len(batch) == 0:
        raise ValueError("empty batch")
    return ParameterVector(central_difference(objective, params.values, eps))


def fresh_array_gradient(values, arch, x, labels, l2):
    """The batch gradient in the kernel's order of operations, with every
    product and sum in a fresh array and the layers joined at the end."""
    layers = _layers(values, arch)
    acts = [x]  # each layer's input
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w + b))
    w, b = layers[-1]
    logits = acts[-1] @ w + b
    expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    delta = expd / expd.sum(axis=1, keepdims=True)
    delta[np.arange(labels.shape[0]), labels] -= 1.0
    delta = delta / labels.shape[0]
    parts = []
    for i in reversed(range(len(layers))):
        w, _ = layers[i]
        gw = acts[i].T @ delta
        if l2 != 0.0:
            gw = gw + l2 * w
        parts[:0] = [gw.ravel(), delta.sum(axis=0)]
        if i:
            delta = (delta @ w.T) * (1.0 - acts[i] * acts[i])
    return np.concatenate(parts)


def reference_sgd(params, arch, data, hp):
    """Per-batch SGD on a fresh parameter array per step."""
    rng = np.random.default_rng(hp.seed)
    current = params.values
    for _ in range(hp.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), hp.batch_size):
            idx = order[start : start + hp.batch_size]
            grad = fresh_array_gradient(current, arch, data.features[idx], data.labels[idx], hp.l2)
            current = current - hp.learning_rate * grad
    return current
