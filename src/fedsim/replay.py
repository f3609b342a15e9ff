"""Lineage verification: recompute every ledgered version from archived payloads.

Verification folds forward from the root. Each version is recomputed with
the same aggregation routine that minted it, using the recomputed (never
the recorded) parameters of everything it depends on, so a single corrupt
payload flags its own version and taints the entire chain below it.
"""

from __future__ import annotations

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


def load_archive(payload_dir: str | Path) -> dict[str, bytes]:
    """Read a payload store written by a run: one file per content hash."""
    pdir = Path(payload_dir)
    if not pdir.is_dir():
        raise ArchiveError(f"payload directory {pdir} does not exist")
    return {p.stem: p.read_bytes() for p in sorted(pdir.glob("*.bin"))}


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


def verify_ledger(ledger: VersionLedger, archive: dict[str, bytes]) -> list[VersionCheck]:
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

    checks: list[VersionCheck] = []
    clean: dict[str, np.ndarray] = {}  # vid -> recomputed params, MATCH versions only
    bad: set[str] = set()  # every version whose recomputation cannot be trusted

    for vid in versions:
        rec = ledger.get(vid)
        deps = [rec.parent_version_id] if rec.parent_version_id else []
        deps += [c.base_version for c in rec.contributors]
        if any(d in bad for d in deps):
            checks.append(VersionCheck(vid, STATUS_TAINTED_PARENT, rec.params_hash))
            bad.add(vid)
            continue
        try:
            values = _recompute(rec, archive, clean)
        except _Missing as e:
            checks.append(
                VersionCheck(
                    vid, STATUS_MISSING_PAYLOAD, rec.params_hash,
                    note=f"missing payloads: {e}",
                )
            )
            bad.add(vid)
            continue
        except _Mismatch as e:
            checks.append(
                VersionCheck(vid, STATUS_HASH_MISMATCH, rec.params_hash, note=str(e))
            )
            bad.add(vid)
            continue
        got = wire.params_hash(values)
        if got == rec.params_hash:
            checks.append(VersionCheck(vid, STATUS_MATCH, rec.params_hash, got))
            clean[vid] = values
        else:
            checks.append(VersionCheck(vid, STATUS_HASH_MISMATCH, rec.params_hash, got))
            bad.add(vid)
    return checks


def replay_run(ledger_path: str | Path, payload_dir: str | Path) -> list[VersionCheck]:
    ledger = VersionLedger.read_jsonl(ledger_path)
    archive = load_archive(payload_dir)
    return verify_ledger(ledger, archive)
