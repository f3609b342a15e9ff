"""Reading and tampering with a run's payload segments in tests.

A payload directory holds records in .pack segments (wire.SegmentWriter);
these helpers find a blob's record through wire.index_segments and edit or
drop it in place, so a test says what it does to a blob, not where the blob
sits.
"""

from pathlib import Path

from fedsim import wire


def read_blobs(payload_dir: Path) -> dict[str, bytes]:
    """content hash -> blob of every record in the segments."""
    data = {}
    out = {}
    for digest, (segment, offset, length) in wire.index_segments(payload_dir).items():
        if segment not in data:
            data[segment] = segment.read_bytes()
        out[digest] = data[segment][offset : offset + length]
    return out


def edit_blob(payload_dir: Path, digest: str, edit) -> None:
    """Replace the blob archived under `digest` with edit(blob), in place;
    the edit keeps the blob's length, so every other record stays put."""
    segment, offset, length = wire.index_segments(payload_dir)[digest]
    data = bytearray(segment.read_bytes())
    blob = bytes(edit(bytes(data[offset : offset + length])))
    assert len(blob) == length, "an in-place edit must keep the blob's length"
    data[offset : offset + length] = blob
    segment.write_bytes(bytes(data))


def flip_byte(payload_dir: Path, digest: str, at: int | None = None) -> None:
    """Flip the low bit of one byte of a blob: byte `at`, or the middle one."""

    def flip(blob: bytes) -> bytes:
        i = len(blob) // 2 if at is None else at
        edited = bytearray(blob)
        edited[i] ^= 0x01
        return bytes(edited)

    edit_blob(payload_dir, digest, flip)


def drop_blob(payload_dir: Path, digest: str) -> None:
    """Cut the record of `digest`, header and blob, out of its segment."""
    segment, offset, length = wire.index_segments(payload_dir)[digest]
    data = segment.read_bytes()
    start = offset - wire._RECORD_HEAD.size
    segment.write_bytes(data[:start] + data[offset + length :])
