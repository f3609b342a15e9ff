"""Lineage verification: recompute every ledgered version from archived payloads.

Verification folds forward from the root. Each version is recomputed with
the same aggregation routine that minted it, using the recomputed (never
the recorded) parameters of everything it depends on, so a single corrupt
payload flags its own version and taints the entire chain below it.

Memory is bounded by what the fold still needs, not by the run's length.
The archive's segments are indexed once; a blob is read from its segment
with one seek, when a version names it. A recomputed version is held only
until its last use as a parent or an async base, which the ledger gives up
front; one that nothing uses is never held.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import wire
from .aggregation import (
    MODE_ASYNC,
    MODE_GOSSIP,
    MODE_HIERARCHICAL,
    MODE_INIT,
    MODE_SECURE,
    SEGMENT_BODY,
    EdgeGroup,
    GlobalVersionRecord,
    GossipGraph,
    VersionLedger,
    WeightedUpdate,
    async_merge,
    fedavg,
    hierarchical_aggregate,
    node_mean,
    run_gossip,
    secure_sum,
)
from .client import decode_payload_body, dense_update, update_core, with_head
from .errors import ArchiveError, CorruptMessageError, IntegrityError
from .models import ParameterVector

STATUS_MATCH = "MATCH"
STATUS_HASH_MISMATCH = "HASH_MISMATCH"
STATUS_TAINTED_PARENT = "TAINTED_PARENT"
STATUS_MISSING_PAYLOAD = "MISSING_PAYLOAD"


@dataclass(frozen=True)
class VersionCheck:
    version_id: str
    status: str
    expected_hash: str
    recomputed_hash: str | None = None
    note: str = ""


def all_match(checks: list[VersionCheck]) -> bool:
    return all(c.status == STATUS_MATCH for c in checks)


class _PayloadStore(Mapping):
    """Read-only content hash -> blob view of a payload directory. The
    segments are indexed once, to (segment, offset, length) per hash; a blob
    is read with one seek each time it is asked for and is not kept."""

    def __init__(self, pdir: Path):
        self._index = wire.index_segments(pdir)

    def __getitem__(self, digest: str) -> bytes:
        segment, offset, length = self._index[digest]
        with segment.open("rb") as fh:
            fh.seek(offset)
            return fh.read(length)

    def __contains__(self, digest: object) -> bool:
        return digest in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._index))

    def __len__(self) -> int:
        return len(self._index)


def load_archive(payload_dir: str | Path) -> Mapping[str, bytes]:
    """Open the payload archive a run wrote: the segments of `payload_dir`
    (wire.SegmentWriter), indexed once.

    Raises ArchiveError when the directory does not exist, when it holds
    only per-blob .bin files (the layout before segments), and, naming the
    segment and byte offset, when a record is short, malformed or repeated.
    """
    pdir = Path(payload_dir)
    if not pdir.is_dir():
        raise ArchiveError(f"payload directory {pdir} does not exist")
    if not any(pdir.glob("*.pack")) and any(pdir.glob("*.bin")):
        raise ArchiveError(
            f"payload directory {pdir} holds one .bin file per blob, the layout "
            "before segments; replay reads .pack segments"
        )
    return _PayloadStore(pdir)


class _Mismatch(Exception):
    """Internal: recomputation disagreed with the record."""


class _Missing(Exception):
    def __init__(self, hashes: list[str]):
        super().__init__(", ".join(hashes))
        self.hashes = hashes


def _decoded_payloads(rec: GlobalVersionRecord, archive) -> dict[int, object]:
    missing = [c.payload_hash for c in rec.contributors if c.payload_hash not in archive]
    if missing:
        raise _Missing(missing)
    out = {}
    for c in rec.contributors:
        blob = archive[c.payload_hash]
        if wire.content_hash(blob) != c.payload_hash:
            raise _Mismatch(f"payload content for client {c.client_id} does not hash as recorded")
        try:
            out[c.client_id] = decode_payload_body(c.update_kind, blob)
        except CorruptMessageError as e:
            raise _Mismatch(f"payload for client {c.client_id} does not decode: {e}") from None
    return out


def _recompute(rec, archive, clean: dict[str, np.ndarray]) -> np.ndarray:
    """The parameters `rec` stands for, recomputed from its payloads and the
    clean versions it depends on. A record whose fields cannot be recomputed
    (a missing or malformed `detail` entry, an unknown base version, a value
    the aggregation rejects) raises _Mismatch naming the error."""
    try:
        return _recompute_values(rec, archive, clean)
    except (KeyError, TypeError, ValueError) as e:
        raise _Mismatch(f"record does not recompute: {type(e).__name__}: {e}") from None


def _recompute_values(rec, archive, clean: dict[str, np.ndarray]) -> np.ndarray:
    mode = rec.aggregation_mode
    if mode == MODE_INIT:
        blob = archive[rec.params_hash]
        if wire.content_hash(blob) != rec.params_hash:
            raise _Mismatch("archived root parameters do not hash as recorded")
        return np.frombuffer(blob, dtype="<f8").copy()

    payloads = _decoded_payloads(rec, archive)
    parent = clean[rec.parent_version_id]
    body_len = rec.detail["body_len"] if rec.update_segment == SEGMENT_BODY else None

    def update(c) -> ParameterVector:
        return dense_update(payloads[c.client_id], update_core(clean[c.base_version], body_len))

    if mode == MODE_SECURE:
        ids = [c.client_id for c in rec.contributors]
        total_n = sum(c.n_samples for c in rec.contributors)
        subs = [(c.client_id, payloads[c.client_id].values) for c in rec.contributors]
        core = secure_sum(subs, total_n, ids)
    elif mode == MODE_ASYNC:
        (c,) = rec.contributors
        core = async_merge(
            ParameterVector(update_core(parent, body_len)),
            update(c),
            rec.detail["current_round"],
            rec.detail["base_round"],
            rec.detail["alpha0"],
            rec.detail["decay"],
        )
    elif mode == MODE_GOSSIP:
        graph = GossipGraph(
            [c.client_id for c in rec.contributors],
            [tuple(e) for e in rec.detail["edges"]],
        )
        states = {
            c.client_id: ParameterVector(payloads[c.client_id].values.copy())
            for c in rec.contributors
        }
        states = run_gossip(graph, states, rec.detail["steps"])
        core = node_mean(states)
    else:
        weighted = [WeightedUpdate(c.client_id, update(c), c.n_samples) for c in rec.contributors]
        if mode == MODE_HIERARCHICAL:
            groups = [EdgeGroup(e, members) for e, members in rec.detail["groups"]]
            core = hierarchical_aggregate(groups, weighted)
        else:
            core = fedavg(weighted)
    return with_head(core, parent, body_len).values


def _dependencies(rec: GlobalVersionRecord) -> list[str]:
    deps = [rec.parent_version_id] if rec.parent_version_id else []
    return deps + [c.base_version for c in rec.contributors]


def _check(rec, archive, clean) -> tuple[VersionCheck, np.ndarray | None]:
    """One version's verdict, with its recomputed parameters when it matches."""
    vid = rec.version_id
    try:
        values = _recompute(rec, archive, clean)
    except _Missing as e:
        note = f"missing payloads: {e}"
        return VersionCheck(vid, STATUS_MISSING_PAYLOAD, rec.params_hash, note=note), None
    except _Mismatch as e:
        return VersionCheck(vid, STATUS_HASH_MISMATCH, rec.params_hash, note=str(e)), None
    got = wire.params_hash(values)
    if got != rec.params_hash:
        return VersionCheck(vid, STATUS_HASH_MISMATCH, rec.params_hash, got), None
    return VersionCheck(vid, STATUS_MATCH, rec.params_hash, got), values


def verify_ledger(ledger: VersionLedger, archive: Mapping[str, bytes]) -> list[VersionCheck]:
    """Fold forward through the ledger, checking every recorded hash.

    Raises IntegrityError when the root names another content hash than
    wire.CONTENT_HASH, and ArchiveError when the root parameters are not
    archived at all; every other problem becomes a per-version status.
    """
    versions = ledger.versions()
    if not versions:
        raise IntegrityError("ledger is empty")
    root = ledger.get(versions[0])
    if root.parent_version_id is not None:
        raise IntegrityError("ledger does not start at a root version")
    # a root that names no algorithm is from before BLAKE2b, when hashes were FNV-1a
    algorithm = root.detail.get("content_hash", "fnv1a-64")
    if algorithm != wire.CONTENT_HASH:
        raise IntegrityError(
            f"ledger content hashes are {algorithm}; replay recomputes {wire.CONTENT_HASH}"
        )
    if root.params_hash not in archive:
        raise ArchiveError(f"archive is missing the root parameters [{root.params_hash}]")

    # the position of the last version that depends on each version
    last_use = {d: i for i, vid in enumerate(versions) for d in _dependencies(ledger.get(vid))}
    checks: list[VersionCheck] = []
    clean: dict[str, np.ndarray] = {}  # vid -> recomputed params, MATCH versions still needed
    bad: set[str] = set()  # every version whose recomputation cannot be trusted

    for i, vid in enumerate(versions):
        rec = ledger.get(vid)
        deps = _dependencies(rec)
        if any(d in bad for d in deps):
            check, values = VersionCheck(vid, STATUS_TAINTED_PARENT, rec.params_hash), None
        else:
            check, values = _check(rec, archive, clean)
        checks.append(check)
        if values is None:
            bad.add(vid)
        elif vid in last_use:
            clean[vid] = values
        for d in deps:
            if last_use[d] == i:
                clean.pop(d, None)
    return checks


def replay_run(ledger_path: str | Path, payload_dir: str | Path) -> list[VersionCheck]:
    ledger = VersionLedger.read_jsonl(ledger_path)
    archive = load_archive(payload_dir)
    return verify_ledger(ledger, archive)
