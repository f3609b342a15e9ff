"""Gradient references for the tests.

fedsim trains through `models.local_train` and never needs a gradient on
its own, nor a numerical one. The tests check the SGD kernel against both,
so the references live here: the exact gradient of the training objective,
the flat buffer `models._sgd_kernel` writes, and central finite differences
of the same objective computed from the per-sample loss alone.
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
    loss = _sgd_kernel(unpack(params, arch), _layers(grad, arch), batch.features, batch.labels, l2)
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
