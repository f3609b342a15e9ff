"""Canonical wire sizes, payload encoding and content hashing.

Whole messages are never built; their sizes are formulas. Each message is a
16-byte header (kind u32 | round u32 | sender u32 | count u32) and its
payload. A broadcast puts a hyperparameter block before its parameters; an
update envelope puts a base-version u32, an n_samples u32 and an evaluation
block before its payload. Only payload bodies are encoded, for hashing and
the archive: dense payloads are little-endian float64 values; sparse
payloads are one (index u32, quantized code of ceil(bits/8) bytes) entry per
kept coordinate followed by one float64 scale. The encodings are bit-exact:
equal inputs produce equal bytes.

Content hashes are BLAKE2b with an 8-byte digest (CONTENT_HASH) over these
canonical bytes, rendered as 16 hex digits. Seeds and the run id keep 64-bit
FNV-1a: seeds feed the random generators and the run id names a run's
directory, so neither may change.

Every .jsonl artifact goes through write_jsonl: one strict (RFC 8259) JSON
object per line, with sorted keys.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptMessageError

# update kinds; ledger.jsonl records these numbers
K_UPDATE_DENSE = 6  # envelope: header | base u32 | n_samples u32 | eval block | payload
K_UPDATE_MASKED = 7
K_UPDATE_SPARSE4 = 8
K_UPDATE_SPARSE8 = 9
K_UPDATE_SPARSE16 = 10

_UPDATE_SPARSE_BITS = {K_UPDATE_SPARSE4: 4, K_UPDATE_SPARSE8: 8, K_UPDATE_SPARSE16: 16}
UPDATE_SPARSE_KIND_BY_BITS = {4: K_UPDATE_SPARSE4, 8: K_UPDATE_SPARSE8, 16: K_UPDATE_SPARSE16}

# wire sender ids for non-client actors; clients use their own id
SERVER_SENDER = 0xFFFFFFFF
EDGE_SENDER_BASE = 0xFFFF0000

_HEADER = struct.Struct("<IIII")
_F64 = struct.Struct("<d")
_HP_BLOCK = struct.Struct("<dIIdQ")  # learning_rate, epochs, batch_size, l2, seed
_EVAL_FIXED = struct.Struct("<ddIII")  # loss, accuracy, n_samples, num_classes, degenerate

HEADER_SIZE = _HEADER.size
HP_BLOCK_SIZE = _HP_BLOCK.size
BASE_VERSION_SIZE = 4


def code_width(bits: int) -> int:
    if bits not in (4, 8, 16):
        raise ValueError("bits must be one of 4, 8, 16")
    return (bits + 7) // 8


# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------


def dense_message_size(d: int) -> int:
    return HEADER_SIZE + 8 * d


def eval_block_size(num_classes: int) -> int:
    return _EVAL_FIXED.size + 4 * num_classes


def broadcast_message_size(d: int) -> int:
    return HEADER_SIZE + HP_BLOCK_SIZE + 8 * d


# ---------------------------------------------------------------------------
# hashing / version ids
# ---------------------------------------------------------------------------

CONTENT_HASH = "blake2b-64"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a of `data`; from start state `h`, the hash of whatever
    prefix left that state, so fnv1a64(b, h=fnv1a64(a)) == fnv1a64(a + b)."""
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


def content_hash(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def params_bytes(values: np.ndarray) -> bytes:
    """Canonical little-endian float64 encoding of a flat value array."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def params_hash(values: np.ndarray) -> str:
    return content_hash(params_bytes(values))


def format_version(n: int) -> str:
    return f"g{n}"


# ---------------------------------------------------------------------------
# payload bodies
# ---------------------------------------------------------------------------


def _sparse_entry(bits: int) -> np.dtype:
    """One packed sparse entry: index u32, then a code of code_width(bits) bytes."""
    return np.dtype([("index", "<u4"), ("code", "u1" if code_width(bits) == 1 else "<u2")])


def encode_sparse_body(indices, codes, bits: int, scale: float) -> bytes:
    """The sparse payload: one packed entry per (index, code), then the scale."""
    entry = _sparse_entry(bits)
    idx = np.asarray(indices, dtype=np.int64)
    cds = np.asarray(codes, dtype=np.int64)
    if idx.shape != cds.shape or idx.ndim != 1:
        raise ValueError("indices and codes disagree on length")
    for name, values in (("index", idx), ("code", cds)):
        top = np.iinfo(entry[name]).max
        if len(values) and (values.min() < 0 or values.max() > top):
            raise ValueError(f"sparse {name} outside its {entry[name].itemsize}-byte field")
    out = np.empty(len(idx), dtype=entry)
    out["index"] = idx
    out["code"] = cds
    return out.tobytes() + _F64.pack(scale)


def decode_sparse_body(buf, bits: int):
    """(indices, codes, scale) of a sparse payload that fills `buf` exactly."""
    entry = _sparse_entry(bits)
    count, rest = divmod(len(buf) - 8, entry.itemsize)
    if count < 0 or rest:
        raise CorruptMessageError(
            f"sparse payload length {len(buf)} is not 8 plus a multiple of {entry.itemsize}"
        )
    entries = np.frombuffer(buf, dtype=entry, count=count)
    (scale,) = _F64.unpack_from(buf, len(buf) - 8)
    return entries["index"].astype(np.int64), entries["code"].astype(np.int64), scale


def sparse_bits_for_update_kind(kind: int) -> int | None:
    return _UPDATE_SPARSE_BITS.get(kind)


# ---------------------------------------------------------------------------
# jsonl artifacts
# ---------------------------------------------------------------------------


def _finite_or_null(value):
    """`value` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_jsonl(path: str | Path, rows) -> None:
    """One strict JSON object per line. JSON has no token for a non-finite
    float, so one is written as null."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            try:
                line = json.dumps(row, sort_keys=True, allow_nan=False)
            except ValueError:
                line = json.dumps(_finite_or_null(row), sort_keys=True, allow_nan=False)
            fh.write(line + "\n")
