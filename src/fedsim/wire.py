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
directory, so neither may change. seed_words and id_streams seed many
generators at once, with the bytes np.random.default_rng gives each.

Every .jsonl artifact goes through write_jsonl: one strict (RFC 8259) JSON
object per line, with sorted keys.

The payload archive is a run's payloads/ directory of append-only segment
files, 000000.pack, 000001.pack, and so on. A segment is a run of records,
each the blob's content hash as 16 ASCII hex digits, the blob's length as a
u64 little-endian, then the blob. SegmentWriter appends them and rolls to a
new segment when a record would take the current one past SEGMENT_BYTES; a
record larger than that gets a segment of its own. index_segments reads the
records' places back. Appending saves the file creation that one file per
blob costs, and the cap bounds what a reader that takes a file whole (a
checksum tool) holds at once.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ArchiveError, CorruptMessageError

# update kinds; ledger.jsonl records these numbers
K_UPDATE_DENSE = 6  # envelope: header | base u32 | n_samples u32 | eval block | payload
K_UPDATE_MASKED = 7
K_UPDATE_SPARSE4 = 8
K_UPDATE_SPARSE8 = 9
K_UPDATE_SPARSE16 = 10

# the sparse code widths, each with its kind: the one declaration of both
UPDATE_SPARSE_KIND_BY_BITS = {4: K_UPDATE_SPARSE4, 8: K_UPDATE_SPARSE8, 16: K_UPDATE_SPARSE16}
_UPDATE_SPARSE_BITS = {kind: bits for bits, kind in UPDATE_SPARSE_KIND_BY_BITS.items()}

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
    if bits not in UPDATE_SPARSE_KIND_BY_BITS:
        raise ValueError(f"bits must be one of {tuple(UPDATE_SPARSE_KIND_BY_BITS)}")
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
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a of `data`."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _U64
    return h


# numpy's SeedSequence hash constants (bit_generator.pyx); they do not
# depend on the entropy, so the seed words of many entropy lists come from
# one pass of uint32 array arithmetic
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_SS_POOL = 4
_U32 = 0xFFFFFFFF

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_U128 = (1 << 128) - 1


def _int_words(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int: least
    significant first, as few as hold it, and one 0 word for 0."""
    value = int(value)
    if value < 0:
        raise ValueError("seed entropy must be non-negative")
    words = [value & _U32]
    while value > _U32:
        value >>= 32
        words.append(value & _U32)
    return words


def seed_words(entropy: list) -> np.ndarray:
    """np.random.SeedSequence(e).generate_state(4, np.uint64) for every
    entropy list e that `entropy` stands for, one row each.

    Each int in `entropy` is shared by every row and gives its own minimal
    uint32 words, as SeedSequence coerces an int. Each 1-D array (an id
    column) gives one word per row, so its values must lie in [0, 2**32).
    Row i stands for `entropy` with every array replaced by its i-th value:
    [seed, ids, salt] gives default_rng([seed, id, salt]) for each id.
    Pool slots past the entropy hash a 0 word, so an entropy of at most four
    words equals its zero-padded form: a uint64 seed s is the two columns
    (s & 0xFFFFFFFF, s >> 32) whether or not s needs its high word. Words
    past the pool are mixed in afterwards, as SeedSequence.mix_entropy does.
    """
    parts = []
    rows = None
    for part in entropy:
        if np.ndim(part) == 0:
            parts.extend(_int_words(part))
            continue
        column = np.asarray(part)
        if column.ndim != 1 or (rows is not None and len(column) != rows):
            raise ValueError("id columns of seed entropy must be 1-D and of one length")
        if len(column) and (column.min() < 0 or column.max() > _U32):
            raise ValueError("an id in seed entropy must lie in [0, 2**32)")
        rows = len(column)
        parts.append(column)
    rows = 1 if rows is None else rows
    words = [np.full(rows, part, dtype=np.uint32) for part in parts]
    shift = np.uint32(16)
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _U32
        value = value * np.uint32(hash_const)
        return value ^ (value >> shift)

    def mix(x, y):
        value = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return value ^ (value >> shift)

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_SS_POOL)]
    for i_src in range(_SS_POOL):
        for i_dst in range(_SS_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_SS_POOL:]:
        for i_dst in range(_SS_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    # eight uint32 outputs, read as four little-endian uint64 words
    state = np.zeros((rows, 4), dtype=np.uint64)
    hash_const = _SS_INIT_B
    for i in range(8):
        value = pool[i % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _U32
        value = value * np.uint32(hash_const)
        half = (value ^ (value >> shift)).astype(np.uint64)
        state[:, i // 2] |= half << np.uint64(32 * (i % 2))
    return state


def pcg64_state(words: list[int]) -> dict:
    """The PCG64 `bit_generator.state` that seeding from SeedSequence state
    words [w0, w1, w2, w3], as Python ints, gives: PCG's srandom with
    initstate w0:w1 and initseq w2:w3, as numpy's pcg64_set_seed calls it."""
    w0, w1, w2, w3 = words
    inc = ((((w2 << 64) | w3) << 1) | 1) & _U128
    state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _U128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def id_streams(entropy: list) -> Iterator[tuple[int, np.random.Generator]]:
    """(id, rng) for each id of the one id column in `entropy`, in order,
    where rng draws as np.random.default_rng(entropy with that id in the
    column's place) does.

    rng is one Generator, reseeded before each pair is handed out, so a
    stream is drawn from before the next pair is taken.
    """
    (ids,) = (part for part in entropy if np.ndim(part))
    rows = seed_words(entropy).tolist()
    rng = np.random.Generator(np.random.PCG64(0))

    def streams():
        for cid, row in zip(np.asarray(ids).tolist(), rows):
            rng.bit_generator.state = pcg64_state(row)
            yield cid, rng

    return streams()


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
    """One strict JSON object per line, through one encoder per file. JSON
    has no token for a non-finite float, so one is written as null."""
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            try:
                line = encode(row)
            except ValueError:
                line = encode(_finite_or_null(row))
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# payload archive segments
# ---------------------------------------------------------------------------

SEGMENT_BYTES = 1 << 18  # a segment's cap, which only a lone larger record exceeds
_RECORD_HEAD = struct.Struct("<16sQ")  # content hash as ASCII hex digits, blob length
_HEX_DIGITS = frozenset(b"0123456789abcdef")


class SegmentWriter:
    """Appends payload records to the segments of one directory, from
    segment 0. The current segment is opened once per record and closed
    again, so every record appended before a failure is on disk."""

    def __init__(self, directory: Path):
        self._directory = directory
        self._segment = 0
        self._size = 0  # bytes in the current segment

    def append(self, digest: str, blob: bytes) -> None:
        size = _RECORD_HEAD.size + len(blob)
        if self._size and self._size + size > SEGMENT_BYTES:
            self._segment += 1
            self._size = 0
        with (self._directory / f"{self._segment:06d}.pack").open("ab") as fh:
            fh.write(_RECORD_HEAD.pack(digest.encode("ascii"), len(blob)))
            fh.write(blob)
        self._size += size


def index_segments(directory: Path) -> dict[str, tuple[Path, int, int]]:
    """content hash -> (segment, offset, length) of its blob, for every
    record in the segments of `directory`, read header by header.

    Raises ArchiveError naming the segment and the record's byte offset when
    a record is cut short, its hash is not 16 lowercase hex digits, or its
    hash was already indexed.
    """
    index: dict[str, tuple[Path, int, int]] = {}
    for segment in sorted(directory.glob("*.pack")):
        end = segment.stat().st_size
        with segment.open("rb") as fh:
            offset = 0
            while offset < end:
                head = fh.read(_RECORD_HEAD.size)
                where = f"segment {segment.name} at byte {offset}"
                if len(head) < _RECORD_HEAD.size:
                    raise ArchiveError(f"{where}: record header cut short")
                raw, length = _RECORD_HEAD.unpack(head)
                if not _HEX_DIGITS.issuperset(raw):
                    raise ArchiveError(f"{where}: record does not start with a content hash")
                start = offset + _RECORD_HEAD.size
                if start + length > end:
                    raise ArchiveError(f"{where}: record of {length} bytes cut short")
                digest = raw.decode("ascii")
                if digest in index:
                    first, first_start, _ = index[digest]
                    raise ArchiveError(
                        f"{where}: [{digest}] is archived twice, first in segment "
                        f"{first.name} at byte {first_start - _RECORD_HEAD.size}"
                    )
                index[digest] = (segment, start, length)
                offset = start + length
                fh.seek(offset)
    return index
