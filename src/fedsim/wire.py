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

Content hashes are 64-bit FNV-1a over these canonical bytes, rendered as 16
hex digits. Inputs of VECTOR_MIN_BYTES or more are hashed with numpy, with the
byte loop's exact digests. The xor alters only the state's low byte lo, so
h ^ b = h + d with d = (lo ^ b) - lo, and h_n = h_0 P^n + sum_i d_i P^(n-i)
mod 2^64 is one uint64 dot product. The low bytes follow lo' = ((lo ^ b) * 0xB3)
mod 256; as 0xB3 is odd, bit k of lo' is bit k of lo xor a function of b and
lower bits, so eight vectorised prefix-xor passes give every lo.
"""

from __future__ import annotations

import struct

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

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

# Inputs of at least this many bytes are hashed with numpy; shorter ones
# (seeds, the config hash) with the byte loop, which is faster below about
# 1 KiB because the vectorised form costs ~100 numpy calls whatever the length.
VECTOR_MIN_BYTES = 1024
# The vectorised form hashes long inputs in chunks of this many bytes, which
# bounds its table of powers of the prime and its per-call scratch arrays.
_VECTOR_CHUNK_BYTES = 1 << 16
_BYTE_ONES = np.uint64(0x0101010101010101)


def _fnv1a64_loop(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


def _prime_powers(n: int) -> np.ndarray:
    """[i] = P^(i+1) mod 2^64 for i < n, n a power of two, built by doubling."""
    powers = np.array([_FNV_PRIME], dtype=np.uint64)
    while len(powers) < n:
        powers = np.concatenate([powers, powers * np.uint64(pow(_FNV_PRIME, len(powers), 1 << 64))])
    return powers


_PRIME_POWERS = _prime_powers(_VECTOR_CHUNK_BYTES)


def _fnv1a64_numpy(h: int, data) -> int:
    """FNV-1a state after feeding non-empty `data` to state `h`."""
    n = len(data)
    b = np.frombuffer(data, dtype=np.uint8)
    # lo[i] is the low byte of the state before byte i, solved one bit per
    # pass; its tail past n is padding that fills the last uint64 word.
    size = (n + 8) & ~7
    lo = np.zeros(size, dtype=np.uint8)
    col = np.zeros(size, dtype=np.uint8)
    words = col.view("<u8")
    shifted = np.empty_like(words)
    scratch = np.empty(n, dtype=np.uint8)
    for k in range(8):
        bit = 1 << k
        # while lo's bits >= k are still zero, bit k of (lo[i] ^ b[i]) * 0xB3 is
        # what byte i flips in bit k of the low byte: bit k of lo is its prefix xor
        col[0] = h & bit
        np.bitwise_xor(lo[:n], b, out=scratch)
        np.multiply(scratch, _FNV_PRIME & 0xFF, out=scratch)
        np.bitwise_and(scratch, bit, out=col[1 : n + 1])
        # prefix xor over bytes: within each word, then across words
        for shift in (8, 16, 32):
            np.left_shift(words, shift, out=shifted)
            words ^= shifted
        carry = np.bitwise_xor.accumulate(words >> 56)
        words[1:] ^= carry[:-1] * _BYTE_ONES
        lo |= col
    low = lo[:n]
    delta = (low ^ b).astype(np.int64)
    delta -= low
    powers = _PRIME_POWERS[:n]
    total = int(np.dot(delta.view(np.uint64)[::-1], powers))
    return (h * int(powers[-1]) + total) & _U64


def fnv1a64(data: bytes) -> int:
    if len(data) < VECTOR_MIN_BYTES:
        return _fnv1a64_loop(data)
    h = _FNV_OFFSET
    view = memoryview(data)
    for start in range(0, len(view), _VECTOR_CHUNK_BYTES):
        h = _fnv1a64_numpy(h, view[start : start + _VECTOR_CHUNK_BYTES])
    return h


def hash_hex(data: bytes) -> str:
    return f"{fnv1a64(data):016x}"


def params_bytes(values: np.ndarray) -> bytes:
    """Canonical little-endian float64 encoding of a flat value array."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def params_hash(values: np.ndarray) -> str:
    return hash_hex(params_bytes(values))


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
