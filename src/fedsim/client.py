"""Client-side runtime: training on a local shard, the upload gate,
update compression, and multi-task personalization.

A client owns its shard and any personal state exclusively. Everything it
sends travels as an UpdateEnvelope; a private head never enters one. The
dense path uploads the trained vector; the compressed path uploads top-k
quantized deltas against the broadcast parameters. Under multi-task both
cover only the shared body, and the helpers in "the multi-task segment"
are the one place that knows where it ends.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import wire
from .errors import CorruptMessageError, DivergenceError
from .models import (
    ArchDescriptor,
    EvalReport,
    Hyperparameters,
    ParameterVector,
    evaluate,
    local_train,
)
from .data import ClientShard

WITHHELD_GATE = "below-threshold"
WITHHELD_DIVERGENCE = "divergence"


@dataclass(frozen=True)
class ModelPackage:
    """What the server broadcasts: versioned parameters plus hyperparameters."""

    version_id: str
    params: ParameterVector
    arch: ArchDescriptor
    hp: Hyperparameters


@dataclass(frozen=True)
class GatePolicy:
    """Inclusive upload thresholds; the defaults disable the gate."""

    min_accuracy: float = 0.0
    max_loss: float | None = None

    def __post_init__(self) -> None:
        # a floor above 1.0 is legal and simply never passes
        if self.min_accuracy < 0.0:
            raise ValueError("min_accuracy must be >= 0")
        if self.max_loss is not None and not (self.max_loss > 0):
            raise ValueError("max_loss must be positive (or None for no bound)")


@dataclass(frozen=True)
class CompressionSpec:
    top_k: float
    bits: int

    def __post_init__(self) -> None:
        if not (0.0 < self.top_k <= 1.0):
            raise ValueError("top_k must lie in (0, 1]")
        wire.code_width(self.bits)  # validates the width


@dataclass(frozen=True, eq=False)
class CompressedUpdate:
    """Top-k quantized delta: sorted coordinate indices plus integer codes."""

    d: int
    indices: np.ndarray
    codes: np.ndarray
    bits: int
    scale: float

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        codes = np.asarray(self.codes, dtype=np.int64)
        wire.code_width(self.bits)  # validates the width
        if idx.ndim != 1 or codes.shape != idx.shape:
            raise ValueError("indices and codes must be parallel 1-D arrays")
        if idx.shape[0]:
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.d:
                raise ValueError("indices out of range")
            top = (1 << self.bits) - 1
            if codes.min() < 0 or codes.max() > top:
                raise ValueError("codes out of range for bit width")
        if not (self.scale >= 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be finite and >= 0")
        idx = idx.copy()
        codes = codes.copy()
        idx.setflags(write=False)
        codes.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "codes", codes)


@dataclass(frozen=True)
class UpdateEnvelope:
    client_id: int
    round_index: int
    base_version_id: str
    n_samples: int
    update_kind: int  # wire kind: K_UPDATE_DENSE, K_UPDATE_MASKED or a sparse kind
    payload: ParameterVector | CompressedUpdate
    local_eval: EvalReport
    byte_size: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        dense = isinstance(self.payload, ParameterVector)
        if self.update_kind in (wire.K_UPDATE_DENSE, wire.K_UPDATE_MASKED):
            if not dense:
                raise ValueError("dense/masked payload must be a ParameterVector")
        elif dense or wire.sparse_bits_for_update_kind(self.update_kind) != self.payload.bits:
            raise ValueError(f"kind {self.update_kind} needs a CompressedUpdate of its bit width")


@dataclass(frozen=True)
class Withheld:
    """A client declined to upload this round."""

    client_id: int
    round_index: int
    reason: str
    local_eval: EvalReport | None = None


# ---------------------------------------------------------------------------
# upload gate
# ---------------------------------------------------------------------------


def upload_gate(report: EvalReport, policy: GatePolicy) -> bool:
    """Inclusive pass check: accuracy >= floor and loss <= ceiling."""
    if report.accuracy < policy.min_accuracy:
        return False
    if policy.max_loss is not None and report.loss > policy.max_loss:
        return False
    return True


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------


def _top_k_indices(v: np.ndarray, k: int) -> np.ndarray:
    """The ascending indices of the k largest magnitudes in `v`, ties going
    to the lower index: the first k of a stable sort by -|v|, found with one
    partition instead of a sort.

    NaN ranks below every number, as it does in that sort; when the k
    include a NaN they are every number plus the lowest-index NaNs.
    """
    neg = -np.abs(v)
    kth = np.partition(neg, k - 1)[k - 1]
    if math.isnan(kth):
        above, tied = np.flatnonzero(~np.isnan(neg)), np.flatnonzero(np.isnan(neg))
    else:
        above, tied = np.flatnonzero(neg < kth), np.flatnonzero(neg == kth)
    return np.sort(np.concatenate([above, tied[: k - len(above)]]))


def compress(values: np.ndarray, top_k: float, bits: int) -> CompressedUpdate:
    """Keep the ceil(top_k * d) largest-magnitude coordinates and quantize
    them uniformly over [-m, m] with 2^bits - 1 steps, m the kept maximum.

    Magnitude ties resolve to the lower index. Raises DivergenceError when
    the range 2m leaves float64.
    """
    spec = CompressionSpec(top_k, bits)  # validates both arguments
    if isinstance(values, ParameterVector):
        values = values.values
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError("values must be a non-empty 1-D array")
    d = v.shape[0]
    k = min(d, math.ceil(spec.top_k * d))
    kept = _top_k_indices(v, k)
    m = float(np.max(np.abs(v[kept])))
    steps = (1 << bits) - 1
    if not math.isfinite(2.0 * m):
        raise DivergenceError(f"compression range 2 * {m!r} leaves float64")
    if m == 0.0:
        codes = np.zeros(k, dtype=np.int64)
    else:
        step = 2.0 * m / steps
        codes = np.clip(np.rint((v[kept] + m) / step), 0, steps).astype(np.int64)
    return CompressedUpdate(d=d, indices=kept, codes=codes, bits=bits, scale=m)


def decompress(update: CompressedUpdate, d: int | None = None) -> np.ndarray:
    """Dense reconstruction; unselected coordinates are zero.

    `d` re-targets a decoded update whose true dimension was not on the wire.
    """
    dim = update.d if d is None else int(d)
    if len(update.indices) and int(update.indices[-1]) >= dim:
        raise CorruptMessageError(
            f"compressed index {int(update.indices[-1])} outside dimension {dim}"
        )
    out = np.zeros(dim, dtype=np.float64)
    if update.scale == 0.0 or len(update.indices) == 0:
        return out
    steps = (1 << update.bits) - 1
    step = 2.0 * update.scale / steps
    out[update.indices] = update.codes * step - update.scale
    return out


# ---------------------------------------------------------------------------
# the multi-task segment
# ---------------------------------------------------------------------------
# Under multi-task an update covers only the leading body_len values of the
# model (the shared body); the rest is the head, which stays with each
# client. body_len is None when the whole vector is shared.


def update_core(values: np.ndarray, body_len: int | None) -> np.ndarray:
    """The part of a model vector that an update covers."""
    return values if body_len is None else values[:body_len]


def dense_update(payload, base_core: np.ndarray) -> ParameterVector:
    """The dense update a payload stands for: a dense payload as it is, a
    compressed one as its delta added to `base_core`."""
    if isinstance(payload, ParameterVector):
        return payload
    return ParameterVector(base_core + decompress(payload, d=base_core.shape[0]))


def with_head(core: ParameterVector, parent: np.ndarray, body_len: int | None) -> ParameterVector:
    """A whole model from an aggregated core: the core followed by the head
    of `parent`, the model the core was aggregated against."""
    if body_len is None:
        return core
    return ParameterVector(np.concatenate([core.values, parent[body_len:]]))


# ---------------------------------------------------------------------------
# envelope construction and payload bodies
# ---------------------------------------------------------------------------


def round_train_seed(base_seed: int, client_id: int, round_index: int) -> int:
    packed = struct.pack("<QII", base_seed & 0xFFFFFFFFFFFFFFFF, client_id, round_index)
    return wire.fnv1a64(packed)


def _payload_block_size(payload) -> int:
    if isinstance(payload, ParameterVector):
        return 8 * len(payload)
    return len(payload.indices) * (4 + wire.code_width(payload.bits)) + 8


def build_envelope(
    client_id: int,
    round_index: int,
    base_version_id: str,
    n_samples: int,
    update_kind: int,
    payload,
    report: EvalReport,
) -> UpdateEnvelope:
    size = (
        wire.HEADER_SIZE
        + wire.BASE_VERSION_SIZE
        + 4  # n_samples u32
        + wire.eval_block_size(len(report.per_class_counts))
        + _payload_block_size(payload)
    )
    return UpdateEnvelope(
        client_id=client_id,
        round_index=round_index,
        base_version_id=base_version_id,
        n_samples=n_samples,
        update_kind=update_kind,
        payload=payload,
        local_eval=report,
        byte_size=size,
    )


def encode_payload_body(payload) -> bytes:
    """Just the payload segment of the wire form, without header or metadata.

    This is the unit that gets content-hashed and archived: the bytes that
    actually enter aggregation.
    """
    if isinstance(payload, ParameterVector):
        return wire.params_bytes(payload.values)
    return wire.encode_sparse_body(payload.indices, payload.codes, payload.bits, payload.scale)


def decode_payload_body(update_kind: int, buf: bytes) -> ParameterVector | CompressedUpdate:
    """Inverse of encode_payload_body, given the wire kind that framed it.

    Sparse payloads come back with d set to the index upper bound; re-target
    against the model dimension before densifying.
    """
    if update_kind in (wire.K_UPDATE_DENSE, wire.K_UPDATE_MASKED):
        if len(buf) % 8:
            raise CorruptMessageError("dense payload length is not a multiple of 8")
        return ParameterVector(np.frombuffer(buf, dtype="<f8").copy())
    bits = wire.sparse_bits_for_update_kind(update_kind)
    if bits is None:
        raise CorruptMessageError(f"kind {update_kind} is not an update payload")
    indices, codes, scale = wire.decode_sparse_body(buf, bits)
    d = int(indices[-1]) + 1 if len(indices) else 1  # d is not carried on the wire
    return CompressedUpdate(d=d, indices=indices, codes=codes, bits=bits, scale=scale)


# ---------------------------------------------------------------------------
# client runtime
# ---------------------------------------------------------------------------


class ClientRuntime:
    """Holds one client's shard, gate, compression choice, and private head.

    `body_len` is the length of the shared body under multi-task (the
    arch's shared_parameter_count), None when the whole vector is shared.
    """

    def __init__(
        self,
        client_id: int,
        shard: ClientShard,
        gate: GatePolicy | None = None,
        compression: CompressionSpec | None = None,
        body_len: int | None = None,
    ) -> None:
        self.client_id = client_id
        self.shard = shard
        self.gate = gate or GatePolicy()
        self.compression = compression
        self.body_len = body_len
        # the private head under multi-task; never serialized, never uploaded
        self.head: np.ndarray | None = None

    def start(self, pkg: ModelPackage, round_index: int) -> tuple[ParameterVector, Hyperparameters]:
        """The start stage of a client step: the vector to train from and the
        hyperparameters with this round's seed.

        Under multi-task the client trains the broadcast body joined to its
        own head (the broadcast head in its first round).
        """
        hp = replace(pkg.hp, seed=round_train_seed(pkg.hp.seed, self.client_id, round_index))
        if self.head is None:
            return pkg.params, hp
        return ParameterVector(np.concatenate([pkg.params.values[: self.body_len], self.head])), hp

    def finish(
        self,
        pkg: ModelPackage,
        round_index: int,
        trained: ParameterVector | DivergenceError,
        report: EvalReport | None,
    ) -> UpdateEnvelope | Withheld:
        """The finish stage of a client step, given what training from
        start(pkg, round_index) gave and `report`, its score on the test
        shard: keep the head, gate, package (maybe compressed).

        A client whose training or compression left float64 is withheld as
        diverged.
        """
        if isinstance(trained, DivergenceError):
            return Withheld(self.client_id, round_index, WITHHELD_DIVERGENCE)
        body_len = self.body_len
        if body_len is not None:
            self.head = trained.values[body_len:].copy()  # not a view that pins a lockstep stack
        if not upload_gate(report, self.gate):
            return Withheld(self.client_id, round_index, WITHHELD_GATE, report)
        update = update_core(trained.values, body_len)
        if self.compression is not None:
            delta = update - update_core(pkg.params.values, body_len)
            try:
                payload = compress(delta, self.compression.top_k, self.compression.bits)
            except DivergenceError:
                return Withheld(self.client_id, round_index, WITHHELD_DIVERGENCE)
            update_kind = wire.UPDATE_SPARSE_KIND_BY_BITS[payload.bits]
        else:
            payload = ParameterVector(update)
            update_kind = wire.K_UPDATE_DENSE
        return build_envelope(
            self.client_id,
            round_index,
            pkg.version_id,
            len(self.shard.train),
            update_kind,
            payload,
            report,
        )

    def handle_broadcast(
        self, pkg: ModelPackage, round_index: int
    ) -> UpdateEnvelope | Withheld:
        """Full client step, one client at a time: start, local_train and
        evaluate, finish."""
        start, hp = self.start(pkg, round_index)
        try:
            trained = local_train(start, pkg.arch, self.shard.train, hp)
        except DivergenceError as e:
            return self.finish(pkg, round_index, e, None)
        return self.finish(pkg, round_index, trained, evaluate(trained, pkg.arch, self.shard.test))
