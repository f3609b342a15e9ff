"""Trainable model core.

Two softmax classifiers over flat float64 parameter vectors: multinomial
logistic regression and a one-hidden-layer tanh MLP. Training is plain
minibatch SGD with seeded shuffling so that repeated calls with equal inputs
are bit-identical.

Parameter layout is canonical: layer by layer, weight matrix in row-major
order, then that layer's bias vector. All per-sample reductions (mean loss,
accuracy) accumulate strictly left to right so independent re-computation
can reproduce them.

One kernel, `_sgd_kernel`, computes a batch's loss and gradient for
`local_train`, reading the parameters through per-layer (weights, bias)
views of a raw float64 array. Its order: one forward pass to the logits;
the row max m, exp(logits - m) and the row sums s, which give both the
per-sample cross-entropy m + log(s) - logit[label] and the probabilities
exp(...) / s; the mean loss; the backward pass, adding l2 * weights to each
weight gradient last. The gradient goes into one flat buffer with the
parameters' layout, each layer's written in place through views of it, so
`local_train` updates all parameters at once, `current -= lr * grad`, and
checks once per batch that they and the loss are still finite. Only when
they are not does it test the gradient, then the loss, to name in the
error the first of gradient, loss and parameters that is non-finite.
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
    """Split a flat vector into per-layer (weights, bias) read-only views."""
    return _layers(params.values, arch)


def _layers(flat: np.ndarray, arch: ArchDescriptor) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, bias) views of a flat array; writes go through."""
    if flat.shape[0] != arch.parameter_count:
        raise ValueError(
            f"parameter vector has {flat.shape[0]} entries, arch needs {arch.parameter_count}"
        )
    out = []
    pos = 0
    for (rows, cols), blen in layer_shapes(arch):
        w = flat[pos : pos + rows * cols].reshape(rows, cols)
        pos += rows * cols
        b = flat[pos : pos + blen]
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
    """Returns (logits, hidden activations or None)."""
    if len(layers) == 1:
        w, b = layers[0]
        return x @ w + b, None
    (w1, b1), (w2, b2) = layers
    hidden = np.tanh(x @ w1 + b1)
    return hidden @ w2 + b2, hidden


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray | None = None):
    """Per-sample cross-entropy, exp(logits - row max) and its row sums.

    `rows` is np.arange(len(labels)), passed by a caller that reuses it.
    """
    if rows is None:
        rows = np.arange(labels.shape[0])
    m = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - m)
    sums = expd.sum(axis=1, keepdims=True)
    ce = m[:, 0] + np.log(sums[:, 0]) - logits[rows, labels]
    return ce, expd, sums


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
) -> float:
    """One forward and one backward pass over a batch.

    Returns the mean cross-entropy, without the penalty. Writes the gradient
    of mean cross-entropy plus (l2/2)*||weights||^2 into `grads`, per-layer
    (weights, bias) views of one flat buffer in the parameters' layout: each
    product and bias sum lands in its view through `out=`, and the penalty
    term is added in place last. Every entry is overwritten, so the buffer
    needs no clearing between batches.
    """
    n = labels.shape[0]
    rows = np.arange(n)
    logits, hidden = _logits(layers, x)
    ce, dlogits, sums = _cross_entropy(logits, labels, rows)
    loss = seq_sum(ce.tolist()) / n
    dlogits /= sums  # softmax probabilities
    dlogits[rows, labels] -= 1.0
    dlogits /= n

    if hidden is None:
        ((gw, gb),) = grads
        np.matmul(x.T, dlogits, out=gw)
        dlogits.sum(axis=0, out=gb)
    else:
        (gw1, gb1), (gw2, gb2) = grads
        np.matmul(hidden.T, dlogits, out=gw2)
        dlogits.sum(axis=0, out=gb2)
        dpre = dlogits @ layers[1][0].T
        dpre *= 1.0 - hidden * hidden
        np.matmul(x.T, dpre, out=gw1)
        dpre.sum(axis=0, out=gb1)
    if l2 != 0.0:
        for (w, _), (gw, _) in zip(layers, grads):
            gw += l2 * w
    return loss


def evaluate(params: ParameterVector, arch: ArchDescriptor, data: Dataset) -> EvalReport:
    """Mean cross-entropy and accuracy on the given data.

    Empty data yields a degenerate report (zero loss/accuracy) rather than an
    error. Argmax ties resolve to the lowest class index. A finite model
    whose logits overflow scores a non-finite loss, which callers handle.
    """
    _check_fit(arch, data, "data")
    k = arch.num_classes
    if len(data) == 0:
        return EvalReport(0.0, 0.0, 0, tuple([0] * k), degenerate=True)
    n = len(data)
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = _logits(unpack(params, arch), data.features)
        loss = seq_sum(_cross_entropy(logits, data.labels)[0].tolist()) / n
    counts = np.bincount(data.labels, minlength=k)
    return EvalReport(loss, _accuracy(logits, data.labels), n, tuple(int(c) for c in counts))


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    predicted = logits.argmax(axis=1)  # first max wins on ties
    return int(np.count_nonzero(predicted == labels)) / labels.shape[0]


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


def local_train(
    params: ParameterVector,
    arch: ArchDescriptor,
    data: Dataset,
    hp: Hyperparameters,
) -> ParameterVector:
    """Minibatch SGD over `data`, shuffled per epoch from hp.seed.

    Pure: equal inputs give bit-identical outputs. Batches are consecutive
    slices of the shuffled order; a short trailing batch is kept. Data that
    does not fit `arch` is a ValueError before the first batch. A non-finite
    batch gradient, loss or updated parameter vector aborts with
    DivergenceError naming the epoch and batch.
    """
    n = len(data)
    if n == 0:
        raise ValueError("empty training data")
    if hp.batch_size > n:
        raise ValueError(f"batch_size {hp.batch_size} exceeds shard size {n}")
    _check_fit(arch, data, "data")
    current = params.values.copy()
    grad = np.empty_like(current)
    layers = _layers(current, arch)
    grads = _layers(grad, arch)
    mask = weight_mask(arch) if hp.l2 != 0.0 else None
    rng = np.random.default_rng(hp.seed)
    # overflow poisons the loss, gradient or parameters; the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hp.epochs):
            order = rng.permutation(n)
            for bi, start in enumerate(range(0, n, hp.batch_size)):
                idx = order[start : start + hp.batch_size]
                loss = _sgd_kernel(layers, grads, data.features[idx], data.labels[idx], hp.l2)
                loss += _penalty(current, mask, hp.l2)
                current -= hp.learning_rate * grad
                # a non-finite gradient always leaves the update non-finite,
                # lr 0 included (0 * inf is nan), so one check covers all three
                if not (math.isfinite(loss) and np.isfinite(current).all()):
                    if not np.isfinite(grad).all():
                        what = "gradient"
                    elif not math.isfinite(loss):
                        what = "loss"
                    else:
                        what = "parameters"
                    raise DivergenceError(f"non-finite {what} at epoch {epoch + 1} batch {bi + 1}")
    # a copy of a finite vector, checked finite after every batch
    return ParameterVector._derived(current)


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
