"""Trainable model core.

Two softmax classifiers over flat float64 parameter vectors: multinomial
logistic regression and a one-hidden-layer tanh MLP. Training is plain
minibatch SGD with seeded shuffling so that repeated calls with equal inputs
are bit-identical.

Parameter layout is canonical: layer by layer, weight matrix in row-major
order, then that layer's bias vector. All per-sample reductions (mean loss,
accuracy) accumulate strictly left to right so independent re-computation
can reproduce them.

One kernel, `_sgd_kernel`, computes a batch's loss and gradient, reading
the parameters through per-layer (weights, bias) views of a raw float64
array. Its order: one forward pass to the logits; the row max m,
exp(logits - m) and the row sums s, which give both the per-sample
cross-entropy m + log(s) - logit[label] and the probabilities exp(...) / s;
the mean loss; the backward pass, adding l2 * weights to each weight
gradient last. The gradient goes into one flat buffer with the parameters'
layout, each layer's written in place through views of it, so `_sgd`
updates all parameters at once, `current -= lr * grad`, and checks once
per batch that they and the loss are still finite. Only when they are not
does it test the gradient, then the loss, to name in the error the first of
gradient, loss and parameters that is non-finite.

The kernel and `_sgd` run on any rank. `local_train` is one lane on 2-D
arrays. `train_lockstep` trains many clients as the lanes of one stack:
(C, P) parameters, (C, n, d) features, one set of hyperparameters, and one
seed and one permutation per lane and epoch. A batched matmul runs one
product per lane with that lane's shapes, every other step is elementwise
or per row, and each lane's mean loss is a sequential cumulative sum, so
every lane gets its one-lane result bit for bit, in a stack of one too.
Lanes with equal train and test sizes form one stack, which is trained and
then scored on its stacked test sets, and `evaluate` is that scoring's
one-lane case. A lane that diverges stays in its stack, with the message
its one-lane run would raise, and changes no other lane. STACK_BYTES caps a
stack's bytes, as STACK_SAMPLES caps deploy scoring's stacks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DivergenceError, NonFiniteError

KIND_LOGISTIC = "logistic"
KIND_MLP = "mlp"
MODEL_KINDS = (KIND_LOGISTIC, KIND_MLP)

INIT_ZEROS = "zeros"
INIT_SEEDED_UNIFORM = "seeded_uniform"
INIT_SPAN = 0.05  # seeded init draws from [-INIT_SPAN, +INIT_SPAN]

_MAX_SEED = 2**64

STACK_SAMPLES = 256  # samples per stacked forward pass in accuracies
STACK_BYTES = 1 << 22  # bytes of a train_lockstep stack: train and test features, parameter buffers


def seq_sum(values: Iterable[float]) -> float:
    """Strict left-to-right float accumulation."""
    total = 0.0
    for v in values:
        total += v
    return total


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Immutable flat float64 parameter vector. Every entry must be finite."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"parameter vector must be 1-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("parameter vector contains non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @classmethod
    def _derived(cls, values: np.ndarray) -> ParameterVector:
        """A ParameterVector over `values` without __post_init__'s checks and
        copy. The caller vouches that the array is 1-D float64 and finite,
        and that nothing else writes to it: it is made read-only."""
        pv = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(pv, "values", values)
        return pv


@dataclass(frozen=True)
class ArchDescriptor:
    """Model shape: kind, input width, hidden width (0 for logistic), classes."""

    kind: str
    input_dim: int
    hidden_dim: int
    num_classes: int

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.kind == KIND_LOGISTIC and self.hidden_dim != 0:
            raise ValueError("logistic arch requires hidden_dim == 0")
        if self.kind == KIND_MLP and self.hidden_dim < 1:
            raise ValueError("mlp arch requires hidden_dim >= 1")

    @property
    def parameter_count(self) -> int:
        d, h, k = self.input_dim, self.hidden_dim, self.num_classes
        if self.kind == KIND_LOGISTIC:
            return d * k + k
        return d * h + h + h * k + k

    @property
    def shared_parameter_count(self) -> int:
        """Length of the leading segment that excludes the final linear layer."""
        if self.kind == KIND_LOGISTIC:
            return 0
        return self.input_dim * self.hidden_dim + self.hidden_dim


@dataclass(frozen=True)
class Hyperparameters:
    learning_rate: float
    epochs: int
    batch_size: int
    l2: float
    seed: int

    def __post_init__(self) -> None:
        # learning_rate 0 is legal: it makes training a no-op, which several
        # callers rely on as an identity check.
        if not (self.learning_rate >= 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be finite and >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.l2 >= 0.0 and math.isfinite(self.l2)):
            raise ValueError("l2 must be finite and >= 0")
        if not (0 <= self.seed < _MAX_SEED):
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1:
            raise ValueError("labels must be 1-D")
        if feats.shape[0] != labs.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        if labs.shape[0] and (labs.min() < 0 or labs.max() >= self.num_classes):
            raise ValueError("labels out of range")
        feats = feats.copy()
        labs = labs.copy()
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @classmethod
    def _derived(cls, features: np.ndarray, labels: np.ndarray, num_classes: int) -> Dataset:
        """A Dataset over arrays derived from a validated one, without
        __post_init__'s checks and copies. The caller vouches that the
        arrays are float64 and int64, that they satisfy every check there,
        and that nothing else writes to them: both are made read-only."""
        ds = object.__new__(cls)
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(ds, "features", features)
        object.__setattr__(ds, "labels", labels)
        object.__setattr__(ds, "num_classes", num_classes)
        return ds


@dataclass(frozen=True)
class EvalReport:
    loss: float
    accuracy: float
    n_samples: int
    per_class_counts: tuple[int, ...]
    degenerate: bool = False


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------


def layer_shapes(arch: ArchDescriptor) -> list[tuple[tuple[int, int], int]]:
    """Per layer: (weight matrix shape, bias length), in canonical order."""
    if arch.kind == KIND_LOGISTIC:
        return [((arch.input_dim, arch.num_classes), arch.num_classes)]
    return [
        ((arch.input_dim, arch.hidden_dim), arch.hidden_dim),
        ((arch.hidden_dim, arch.num_classes), arch.num_classes),
    ]


def unpack(params: ParameterVector, arch: ArchDescriptor) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into per-layer (weights, bias row) read-only views."""
    return _layers(params.values, arch)


def _layers(flat: np.ndarray, arch: ArchDescriptor) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, bias) views of a flat array, or of a (C, P) stack
    of them, whose leading axis they keep; writes go through. A bias is a
    (1, len) row, so that it broadcasts over a batch's samples."""
    if flat.shape[-1] != arch.parameter_count:
        raise ValueError(
            f"parameter vector has {flat.shape[-1]} entries, arch needs {arch.parameter_count}"
        )
    lead = flat.shape[:-1]
    out = []
    pos = 0
    for (rows, cols), blen in layer_shapes(arch):
        w = flat[..., pos : pos + rows * cols].reshape(lead + (rows, cols))
        pos += rows * cols
        b = flat[..., pos : pos + blen].reshape(lead + (1, blen))
        pos += blen
        out.append((w, b))
    return out


def weight_mask(arch: ArchDescriptor) -> np.ndarray:
    """Boolean mask, True on weight-matrix coordinates, False on biases."""
    mask = np.zeros(arch.parameter_count, dtype=bool)
    pos = 0
    for (rows, cols), blen in layer_shapes(arch):
        mask[pos : pos + rows * cols] = True
        pos += rows * cols + blen
    return mask


def init_params(arch: ArchDescriptor, mode: str, seed: int = 0) -> ParameterVector:
    n = arch.parameter_count
    if mode == INIT_ZEROS:
        return ParameterVector(np.zeros(n))
    if mode == INIT_SEEDED_UNIFORM:
        rng = np.random.default_rng(seed)
        return ParameterVector(rng.uniform(-INIT_SPAN, INIT_SPAN, size=n))
    raise ValueError(f"unknown init mode {mode!r}")


# ---------------------------------------------------------------------------
# forward pass / loss / gradient
# ---------------------------------------------------------------------------


def _check_fit(arch: ArchDescriptor, data: Dataset, what: str) -> None:
    if data.num_classes != arch.num_classes:
        raise ValueError(f"{what} num_classes disagrees with arch")
    if data.features.shape[1] != arch.input_dim:
        raise ValueError(
            f"features shape {data.features.shape} incompatible with input_dim {arch.input_dim}"
        )


def _logits(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Returns (logits, hidden activations or None) for x (n, d), or for a
    (C, n, d) stack against stacked layers or one shared model. Each sum
    lands in its product's array, which a stack's size makes worth it."""
    z = x @ layers[0][0]
    z += layers[0][1]
    if len(layers) == 1:
        return z, None
    hidden = np.tanh(z, out=z)
    (w2, b2) = layers[1]
    z = hidden @ w2
    z += b2
    return z, hidden


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray | None = None):
    """Per-sample cross-entropy, exp(logits - row max) and its row sums, for
    (M, k) logits and (M,) labels.

    `rows` is np.arange(M), passed by a caller that reuses it.
    """
    if rows is None:
        rows = np.arange(labels.shape[0])
    m = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - m)
    sums = expd.sum(axis=1, keepdims=True)
    ce = m[:, 0] + np.log(sums[:, 0]) - logits[rows, labels]
    return ce, expd, sums


def _merge_lanes(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One lane's (n, k) logits and (n,) labels as they are; a stack's
    (C, n, k) and (C, n) with the lanes' rows merged, for one pass over all."""
    if labels.ndim == 1:
        return logits, labels
    return logits.reshape(-1, logits.shape[-1]), labels.reshape(-1)


def _means(values: np.ndarray, n: int) -> list[float]:
    """The mean of each lane's n consecutive entries of flat `values`,
    summed strictly left to right as seq_sum does: by seq_sum for one lane,
    by one cumulative sum for a stack."""
    if values.shape[0] == n:
        return [seq_sum(values.tolist()) / n]
    return (np.cumsum(values.reshape(-1, n), axis=1)[:, -1] / n).tolist()


def _penalty(flat: np.ndarray, mask: np.ndarray | None, l2: float) -> float:
    """(l2/2)*||weights||^2 over the coordinates `mask` selects (None when l2 is 0)."""
    if l2 == 0.0:
        return 0.0
    w = flat[mask]
    return 0.5 * l2 * float(w @ w)


def _sgd_kernel(
    layers: list[tuple[np.ndarray, np.ndarray]],
    grads: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    labels: np.ndarray,
    l2: float,
) -> list[float]:
    """One forward and one backward pass over a batch, of one lane or of a
    stack of them.

    Returns each lane's mean cross-entropy, without the penalty. Writes the
    gradient of mean cross-entropy plus (l2/2)*||weights||^2 into `grads`,
    per-layer (weights, bias) views of one buffer in the parameters' layout:
    each product and bias sum lands in its view through `out=`, and the
    penalty term is added in place last. Every entry is overwritten, so the
    buffer needs no clearing between batches.
    """
    n = labels.shape[-1]
    logits, hidden = _logits(layers, x)
    flat, flat_labels = _merge_lanes(logits, labels)
    rows = np.arange(flat_labels.shape[0])
    ce, dlogits, sums = _cross_entropy(flat, flat_labels, rows)
    losses = _means(ce, n)
    dlogits /= sums  # softmax probabilities
    dlogits[rows, flat_labels] -= 1.0
    dlogits /= n
    if flat is not logits:
        dlogits = dlogits.reshape(logits.shape)

    if hidden is None:
        ((gw, gb),) = grads
        np.matmul(x.swapaxes(-1, -2), dlogits, out=gw)
        dlogits.sum(axis=-2, keepdims=True, out=gb)
    else:
        (gw1, gb1), (gw2, gb2) = grads
        np.matmul(hidden.swapaxes(-1, -2), dlogits, out=gw2)
        dlogits.sum(axis=-2, keepdims=True, out=gb2)
        dpre = dlogits @ layers[1][0].swapaxes(-1, -2)
        slope = np.multiply(hidden, hidden, out=hidden)  # hidden is not read again
        np.subtract(1.0, slope, out=slope)
        dpre *= slope
        np.matmul(x.swapaxes(-1, -2), dpre, out=gw1)
        dpre.sum(axis=-2, keepdims=True, out=gb1)
    if l2 != 0.0:
        for (w, _), (gw, _) in zip(layers, grads):
            gw += l2 * w
    return losses


def _reports(layers, x: np.ndarray, labels: np.ndarray, k: int) -> list[EvalReport]:
    """The EvalReport of one lane (x (n, d), n >= 1) or of each lane of a
    (C, n, d) stack, scored in one forward pass. A finite model whose logits
    overflow scores a non-finite loss."""
    n = labels.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = _logits(layers, x)
        losses = _means(_cross_entropy(*_merge_lanes(logits, labels))[0], n)
    correct = logits.argmax(axis=-1) == labels  # first max wins
    if correct.ndim == 1:
        hits = [np.count_nonzero(correct)]
    else:
        hits = np.count_nonzero(correct, axis=1).tolist()
    return [
        EvalReport(loss, int(h) / n, n, tuple(np.bincount(y, minlength=k).tolist()))
        for loss, h, y in zip(losses, hits, labels.reshape(-1, n))
    ]


def _degenerate(k: int) -> EvalReport:
    return EvalReport(0.0, 0.0, 0, tuple([0] * k), degenerate=True)


def evaluate(params: ParameterVector, arch: ArchDescriptor, data: Dataset) -> EvalReport:
    """Mean cross-entropy and accuracy on the given data: the one-lane case
    of the stacked scoring in train_lockstep.

    Empty data yields a degenerate report (zero loss/accuracy) rather than an
    error. Argmax ties resolve to the lowest class index. A finite model
    whose logits overflow scores a non-finite loss, which callers handle.
    """
    _check_fit(arch, data, "data")
    if len(data) == 0:
        return _degenerate(arch.num_classes)
    return _reports(unpack(params, arch), data.features, data.labels, arch.num_classes)[0]


def accuracies(cases: Iterable[tuple[list[tuple[np.ndarray, np.ndarray]], Dataset]]) -> list[float]:
    """evaluate(...).accuracy for each (per-layer views, data) case, without
    the loss: what deployment keeps of a report.

    The views come from unpack, taken once per model however many cases
    share it. Cases that share a views object and a test-set size are
    scored in stacks of at most STACK_SAMPLES samples (one case per stack
    past that): one forward pass over the (k, n, d) stack, whose matmuls run
    one product per case with the case's own shape, so the logits equal the
    per-case ones bit for bit. The cap bounds the stack's memory. Empty data
    scores 0.0, as evaluate's degenerate report does.
    """
    cases = list(cases)
    out = [0.0] * len(cases)
    groups: dict[tuple[int, int], tuple[list, list[int]]] = {}
    for i, (layers, data) in enumerate(cases):
        if len(data):
            groups.setdefault((id(layers), len(data)), (layers, []))[1].append(i)
    # a finite model's logits may overflow; its argmax still counts
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, n), (layers, members) in groups.items():
            per_stack = max(1, STACK_SAMPLES // n)
            for start in range(0, len(members), per_stack):
                stack = members[start : start + per_stack]
                x = np.stack([cases[i][1].features for i in stack])
                labels = np.stack([cases[i][1].labels for i in stack])
                logits, _ = _logits(layers, x)
                hits = np.count_nonzero(logits.argmax(axis=-1) == labels, axis=1)  # first max wins
                for i, h in zip(stack, hits.tolist()):
                    out[i] = h / n
    return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _check_train(arch: ArchDescriptor, data: Dataset, hp: Hyperparameters) -> None:
    n = len(data)
    if n == 0:
        raise ValueError("empty training data")
    if hp.batch_size > n:
        raise ValueError(f"batch_size {hp.batch_size} exceeds shard size {n}")
    _check_fit(arch, data, "data")


def _non_finite(grad: np.ndarray, losses: list[float], current: np.ndarray) -> list[str | None]:
    """Per lane, the first of gradient, loss and parameters that is not
    finite, or None for a lane that is."""
    out: list[str | None] = []
    for g, loss, p in zip(grad.reshape(len(losses), -1), losses, current.reshape(len(losses), -1)):
        if not np.isfinite(g).all():
            out.append("gradient")
        elif not math.isfinite(loss):
            out.append("loss")
        elif not np.isfinite(p).all():
            out.append("parameters")
        else:
            out.append(None)
    return out


def _sgd(
    current: np.ndarray,
    arch: ArchDescriptor,
    features: np.ndarray,
    labels: np.ndarray,
    hp: Hyperparameters,
    rngs: list[np.random.Generator],
) -> dict[int, DivergenceError]:
    """Minibatch SGD on `current`, in place: one lane, or a stack of lanes.

    One lane: current (P,), features (n, d), labels (n,) and one generator,
    run on 2-D arrays. A stack of C lanes: current (C, P), features
    (C, n, d), labels (C, n) and one generator per lane. Each lane draws its
    own permutation each epoch. Every step is lane-local, so a lane that
    diverges stays in the stack, with the DivergenceError of its first
    non-finite batch, and changes no other lane. Returns {lane: error}, and
    stops as soon as every lane has one.
    """
    stacked = current.ndim == 2
    n = labels.shape[-1]
    errors: dict[int, DivergenceError] = {}
    mask = weight_mask(arch) if hp.l2 != 0.0 else None
    grad, step = np.empty_like(current), np.empty_like(current)
    layers, grads = _layers(current, arch), _layers(grad, arch)
    # lane c's samples sit at rows c*n..(c+1)*n of the flat features
    flat_x, flat_y = features.reshape(-1, features.shape[-1]), labels.reshape(-1)
    offsets = np.arange(len(rngs))[:, None] * n if stacked else 0
    # overflow poisons the loss, gradient or parameters; the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hp.epochs):
            perms = [rng.permutation(n) for rng in rngs]
            order = np.stack(perms) + offsets if stacked else perms[0]
            for bi, start in enumerate(range(0, n, hp.batch_size)):
                idx = order[..., start : start + hp.batch_size]
                losses = _sgd_kernel(layers, grads, flat_x[idx], flat_y[idx], hp.l2)
                if mask is not None:
                    rows = current.reshape(len(rngs), -1)
                    losses = [loss + _penalty(w, mask, hp.l2) for loss, w in zip(losses, rows)]
                current -= np.multiply(grad, hp.learning_rate, out=step)
                # a non-finite gradient always leaves the update non-finite,
                # lr 0 included (0 * inf is nan), so one check covers all three
                if all(map(math.isfinite, losses)) and np.isfinite(current).all():
                    continue
                for lane, what in enumerate(_non_finite(grad, losses, current)):
                    if what is not None and lane not in errors:
                        errors[lane] = DivergenceError(
                            f"non-finite {what} at epoch {epoch + 1} batch {bi + 1}"
                        )
                if len(errors) == len(rngs):
                    return errors
    return errors


def local_train(
    params: ParameterVector,
    arch: ArchDescriptor,
    data: Dataset,
    hp: Hyperparameters,
) -> ParameterVector:
    """Minibatch SGD over `data`, shuffled per epoch from hp.seed: the
    one-lane case of train_lockstep.

    Pure: equal inputs give bit-identical outputs. Batches are consecutive
    slices of the shuffled order; a short trailing batch is kept. Data that
    does not fit `arch` is a ValueError before the first batch. A non-finite
    batch gradient, loss or updated parameter vector aborts with
    DivergenceError naming the epoch and batch.
    """
    _check_train(arch, data, hp)
    current = params.values.copy()
    errors = _sgd(current, arch, data.features, data.labels, hp, [np.random.default_rng(hp.seed)])
    if errors:
        raise errors[0]
    # a copy of a finite vector, checked finite after every batch
    return ParameterVector._derived(current)


Lane = tuple[ParameterVector, int, Dataset, Dataset]  # start, seed, train, test


def train_lockstep(
    lanes: list[Lane], arch: ArchDescriptor, hp: Hyperparameters
) -> list[tuple[ParameterVector, EvalReport] | tuple[DivergenceError, None]]:
    """local_train from each lane's start on its train set, with `hp` and
    the lane's seed, then evaluate on its test set, for many clients at
    once.

    Lanes that share a train size and a test size train and are scored as
    one stack of at most STACK_BYTES (train and test features, parameters,
    gradient and step; one lane per stack past that). Batched matmuls run
    one product per lane with the lane's own shapes, and every other step
    is elementwise or per row, so each lane's result equals its one-lane
    local_train and evaluate bit for bit, in a stack of any size, one
    included. A lane that diverges stays in its stack and changes no other
    lane; its row is scored with the others and the report dropped. Per
    lane: (trained vector, report), or (DivergenceError, None) for a lane
    that diverged, with the message local_train would raise.
    """
    out: list = [None] * len(lanes)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (_, _, train, test) in enumerate(lanes):
        _check_train(arch, train, hp)
        _check_fit(arch, test, "data")
        groups.setdefault((len(train), len(test)), []).append(i)
    for (n, n_test), members in groups.items():
        lane_bytes = 8 * ((n + n_test) * arch.input_dim + 3 * arch.parameter_count)
        per_stack = max(1, STACK_BYTES // lane_bytes)
        for s in range(0, len(members), per_stack):
            ids = members[s : s + per_stack]
            stack = [lanes[i] for i in ids]
            current = np.stack([start.values for start, *_ in stack])
            errors = _sgd(
                current,
                arch,
                np.stack([train.features for *_, train, _ in stack]),
                np.stack([train.labels for *_, train, _ in stack]),
                hp,
                [np.random.default_rng(seed) for _, seed, *_ in stack],
            )
            if n_test:
                reports = _reports(
                    _layers(current, arch),
                    np.stack([test.features for *_, test in stack]),
                    np.stack([test.labels for *_, test in stack]),
                    arch.num_classes,
                )
            else:
                reports = [_degenerate(arch.num_classes)] * len(stack)
            for j, (i, row, report) in enumerate(zip(ids, current, reports)):
                if j in errors:
                    out[i] = (errors[j], None)
                else:  # a row of a stack no one writes again, checked finite after every batch
                    out[i] = (ParameterVector._derived(row), report)
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: ParameterVector, arch: ArchDescriptor) -> None:
    """JSON checkpoint {arch, values}; floats keep shortest round-trip form."""
    doc = {
        "arch": {
            "kind": arch.kind,
            "input_dim": arch.input_dim,
            "hidden_dim": arch.hidden_dim,
            "num_classes": arch.num_classes,
        },
        "values": params.values.tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[ParameterVector, ArchDescriptor]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    arch = ArchDescriptor(
        kind=doc["arch"]["kind"],
        input_dim=int(doc["arch"]["input_dim"]),
        hidden_dim=int(doc["arch"]["hidden_dim"]),
        num_classes=int(doc["arch"]["num_classes"]),
    )
    params = ParameterVector(np.asarray(doc["values"], dtype=np.float64))
    if len(params) != arch.parameter_count:
        raise ValueError("checkpoint value count disagrees with arch")
    return params, arch
