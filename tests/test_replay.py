"""Recomputing ledgered versions from archived payloads, honest and tampered."""

import json
import tracemalloc
from pathlib import Path

import pytest

from fedsim import replay, wire
from fedsim.aggregation import VersionLedger
from fedsim.cli import main
from fedsim.config import load_config, parse_config
from fedsim.errors import ArchiveError, IntegrityError
from fedsim.replay import (
    STATUS_HASH_MISMATCH,
    STATUS_MATCH,
    STATUS_MISSING_PAYLOAD,
    STATUS_TAINTED_PARENT,
    VersionCheck,
    all_match,
    load_archive,
    replay_run,
    verify_ledger,
)
from fedsim.runner import run_experiment
from payload_archive import drop_blob, edit_blob, flip_byte, read_blobs


def _run(tmp_path, **overrides):
    raw = {
        "rounds": 3,
        "n_clients": 4,
        "seed": 7,
        "optional_components": ["co_versioning"],
    }
    raw.update(overrides)
    out = tmp_path / "run"
    run_experiment(parse_config(raw), out)
    return out


MULTITASK = {
    "init_mode": "seeded_uniform",
    "arch": {"kind": "mlp", "input_dim": 4, "num_classes": 3, "hidden_dim": 8},
}


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"aggregation_mode": "secure"},
        {"aggregation_mode": "hierarchical", "hierarchy": {"n_edges": 2}},
        {"aggregation_mode": "decentralised", "gossip": {"steps_per_round": 2}},
        {"aggregation_mode": "async"},
        {**MULTITASK, "optional_components": ["co_versioning", "compressor", "multitask"]},
        {
            **MULTITASK,
            "aggregation_mode": "async",
            "optional_components": ["co_versioning", "compressor", "multitask"],
        },
        {
            **MULTITASK,
            "aggregation_mode": "hierarchical",
            "optional_components": ["co_versioning", "multitask"],
        },
    ],
    ids=[
        "fedavg",
        "secure",
        "hierarchical",
        "gossip",
        "async",
        "multitask-compressed",
        "async-multitask-compressed",
        "hierarchical-multitask",
    ],
)
def test_untampered_run_replays_to_full_match(tmp_path, overrides):
    out = _run(tmp_path, **overrides)
    checks = replay_run(out / "ledger.jsonl", out / "payloads")
    assert all_match(checks)
    assert len(checks) >= 2  # root plus at least one aggregate


def test_flipped_payload_byte_flags_exact_version_and_taints_children(tmp_path):
    out = _run(tmp_path, net={"dropout_prob": 0.0})
    ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")
    victim = ledger.get("g2").contributors[0].payload_hash
    flip_byte(out / "payloads", victim, at=3)

    status = {c.version_id: c.status for c in replay_run(out / "ledger.jsonl", out / "payloads")}
    assert status == {
        "g0": STATUS_MATCH,
        "g1": STATUS_MATCH,
        "g2": STATUS_HASH_MISMATCH,
        "g3": STATUS_TAINTED_PARENT,
    }


def test_tampered_root_taints_everything(tmp_path):
    out = _run(tmp_path, net={"dropout_prob": 0.0})
    ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")
    edit_blob(
        out / "payloads",
        ledger.get("g0").params_hash,
        lambda blob: bytes([blob[0] ^ 0x80]) + blob[1:],
    )

    checks = replay_run(out / "ledger.jsonl", out / "payloads")
    assert checks[0].status == STATUS_HASH_MISMATCH
    assert all(c.status == STATUS_TAINTED_PARENT for c in checks[1:])


def test_missing_payload_reported_without_guessing(tmp_path):
    out = _run(tmp_path, net={"dropout_prob": 0.0})
    ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")
    victim = ledger.get("g1").contributors[2].payload_hash
    drop_blob(out / "payloads", victim)

    checks = replay_run(out / "ledger.jsonl", out / "payloads")
    status = {c.version_id: c.status for c in checks}
    assert status["g1"] == STATUS_MISSING_PAYLOAD
    assert status["g2"] == status["g3"] == STATUS_TAINTED_PARENT
    note = next(c.note for c in checks if c.version_id == "g1")
    assert victim in note


def test_missing_root_parameters_abort_the_replay(tmp_path):
    out = _run(tmp_path)
    ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")
    root_hash = ledger.get("g0").params_hash
    drop_blob(out / "payloads", root_hash)
    with pytest.raises(ArchiveError) as err:
        replay_run(out / "ledger.jsonl", out / "payloads")
    assert root_hash in str(err.value)


@pytest.mark.parametrize(
    "detail, named",
    [({}, "fnv1a-64"), ({"content_hash": "sha256"}, "sha256")],
    ids=["fnv-era-root", "other-algorithm"],
)
def test_ledger_hashed_with_another_algorithm_is_a_named_error(tmp_path, capsys, detail, named):
    out = _run(tmp_path)
    ledger_path = out / "ledger.jsonl"
    lines = ledger_path.read_text().splitlines()
    root = json.loads(lines[0])
    assert root["detail"] == {"content_hash": "blake2b-64"}
    lines[0] = json.dumps({**root, "detail": detail}, sort_keys=True)
    ledger_path.write_text("\n".join(lines) + "\n")

    with pytest.raises(IntegrityError) as err:
        replay_run(ledger_path, out / "payloads")
    message = f"ledger content hashes are {named}; replay recomputes blake2b-64"
    assert str(err.value) == message
    code = main(["replay", "--ledger", str(ledger_path), "--archive", str(out / "payloads")])
    assert code == 1
    assert message in capsys.readouterr().err


def test_missing_payload_directory_aborts(tmp_path):
    with pytest.raises(ArchiveError):
        load_archive(tmp_path / "nowhere")


def _per_blob_layout(pdir):
    """Rewrite the archive as one <hash>.bin file per blob, as runs wrote it
    before segments."""
    blobs = read_blobs(pdir)
    for segment in pdir.glob("*.pack"):
        segment.unlink()
    for digest, blob in blobs.items():
        (pdir / f"{digest}.bin").write_bytes(blob)
    return "holds one .bin file per blob, the layout before segments"


# the run under test archives into one segment
SEGMENT = "000000.pack"


def _cut_last_record_short(pdir):
    _, offset, length = max(wire.index_segments(pdir).values(), key=lambda loc: loc[1])
    (pdir / SEGMENT).write_bytes((pdir / SEGMENT).read_bytes()[:-1])
    head = offset - wire._RECORD_HEAD.size
    return f"segment {SEGMENT} at byte {head}: record of {length} bytes cut short"


def _cut_header_short(pdir):
    data = (pdir / SEGMENT).read_bytes()
    (pdir / SEGMENT).write_bytes(data + data[:10])
    return f"segment {SEGMENT} at byte {len(data)}: record header cut short"


def _malformed_hash(pdir):
    (pdir / SEGMENT).write_bytes(b"G" + (pdir / SEGMENT).read_bytes()[1:])
    return f"segment {SEGMENT} at byte 0: record does not start with a content hash"


def _repeated_record(pdir):
    digest, (_, offset, length) = min(
        wire.index_segments(pdir).items(), key=lambda item: item[1][1]
    )
    data = (pdir / SEGMENT).read_bytes()
    (pdir / SEGMENT).write_bytes(data + data[: offset + length])
    return (
        f"segment {SEGMENT} at byte {len(data)}: [{digest}] is archived twice, "
        f"first in segment {SEGMENT} at byte 0"
    )


@pytest.mark.parametrize(
    "damage",
    [
        _per_blob_layout,
        _cut_last_record_short,
        _cut_header_short,
        _malformed_hash,
        _repeated_record,
    ],
    ids=["per-blob-layout", "short-record", "short-header", "malformed-hash", "repeated-hash"],
)
def test_unreadable_archive_is_a_named_error(tmp_path, capsys, damage):
    out = _run(tmp_path)
    assert [p.name for p in (out / "payloads").iterdir()] == [SEGMENT]
    message = damage(out / "payloads")
    with pytest.raises(ArchiveError) as err:
        replay_run(out / "ledger.jsonl", out / "payloads")
    assert message in str(err.value)
    args = ["replay", "--ledger", str(out / "ledger.jsonl"), "--archive", str(out / "payloads")]
    assert main(args) == 1
    assert message in capsys.readouterr().err


def test_rerun_into_one_directory_starts_a_fresh_archive(tmp_path):
    out = _run(tmp_path)
    packed = {p.name: p.read_bytes() for p in (out / "payloads").iterdir()}
    held = len(load_archive(out / "payloads"))
    assert _run(tmp_path) == out
    assert {p.name: p.read_bytes() for p in (out / "payloads").iterdir()} == packed
    _run(tmp_path, rounds=1)
    assert len(load_archive(out / "payloads")) < held
    assert all_match(replay_run(out / "ledger.jsonl", out / "payloads"))


def test_verify_uses_recomputed_parents_not_recorded_hashes(tmp_path):
    # stale-merge async chain: every version depends on an earlier base,
    # so a full-match replay proves the fold-forward really reruns the math
    out = _run(
        tmp_path,
        aggregation_mode="async",
        net={"dropout_prob": 0.0, "latency_ms_min": 200.0, "latency_ms_max": 300.0},
    )
    ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")
    archive = load_archive(out / "payloads")
    checks = verify_ledger(ledger, archive)
    assert all_match(checks)
    recomputed = {c.version_id: c.recomputed_hash for c in checks}
    for vid in ledger.versions():
        if vid != "g0":
            assert recomputed[vid] == ledger.get(vid).params_hash


# a stale-merge async chain: with 200-300 ms links every update lands a wave
# after its broadcast, so versions depend on async bases as well as parents
STALE_ASYNC = {
    "aggregation_mode": "async",
    "net": {"dropout_prob": 0.0, "latency_ms_min": 200.0, "latency_ms_max": 300.0},
}


def _dependencies(rec):
    deps = [rec.parent_version_id] if rec.parent_version_id else []
    return deps + [c.base_version for c in rec.contributors]


def _eager_verify(ledger, payload_dir):
    """The fold as it was before replay streamed: every blob read up front
    and every MATCH version kept to the end."""
    archive = read_blobs(payload_dir)
    checks, clean, bad = [], {}, set()
    for vid in ledger.versions():
        rec = ledger.get(vid)
        if any(d in bad for d in _dependencies(rec)):
            checks.append(VersionCheck(vid, STATUS_TAINTED_PARENT, rec.params_hash))
            bad.add(vid)
            continue
        try:
            values = replay._recompute(rec, archive, clean)
        except replay._Missing as e:
            note = f"missing payloads: {e}"
            checks.append(VersionCheck(vid, STATUS_MISSING_PAYLOAD, rec.params_hash, note=note))
            bad.add(vid)
            continue
        except replay._Mismatch as e:
            checks.append(VersionCheck(vid, STATUS_HASH_MISMATCH, rec.params_hash, note=str(e)))
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


def _flip_payload_byte(out, victim):
    flip_byte(out / "payloads", victim.contributors[0].payload_hash)


def _delete_payload(out, victim):
    drop_blob(out / "payloads", victim.contributors[0].payload_hash)


def _edit_recorded_hash(out, victim):
    path = out / "ledger.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    row = next(r for r in rows if r["version_id"] == victim.version_id)
    row["params_hash"] = f"{int(row['params_hash'], 16) ^ 1:016x}"
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


@pytest.mark.parametrize(
    "tamper, victim_status",
    [
        (None, STATUS_MATCH),
        (_flip_payload_byte, STATUS_HASH_MISMATCH),
        (_delete_payload, STATUS_MISSING_PAYLOAD),
        (_edit_recorded_hash, STATUS_HASH_MISMATCH),
    ],
    ids=["untampered", "flipped-payload-byte", "deleted-blob", "mid-chain-hash-edit"],
)
def test_streaming_fold_gives_the_eager_verdicts(tmp_path, tamper, victim_status):
    out = _run(tmp_path, rounds=6, n_clients=6, **STALE_ASYNC)
    ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")
    versions = ledger.versions()
    victim = ledger.get(versions[2 * len(versions) // 3])
    if tamper is not None:
        tamper(out, victim)
        ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")

    checks = replay_run(out / "ledger.jsonl", out / "payloads")
    assert checks == _eager_verify(ledger, out / "payloads")
    status = {c.version_id: c.status for c in checks}
    assert status[victim.version_id] == victim_status
    if tamper is not None:
        after = versions[versions.index(victim.version_id) + 1 :]
        assert after and all(status[v] == STATUS_TAINTED_PARENT for v in after)


def test_replay_memory_is_set_by_live_versions_not_by_chain_length(tmp_path):
    # d = 6010 parameters, 48 KB a version; the chain mints ~160 of them
    out = _run(
        tmp_path,
        rounds=8,
        n_clients=20,
        arch={"kind": "logistic", "input_dim": 600, "num_classes": 10},
        data={"samples_per_client": 40},
        **STALE_ASYNC,
    )
    ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")
    versions = ledger.versions()
    vector_bytes = 8 * 6010
    last_use = {d: i for i, v in enumerate(versions) for d in _dependencies(ledger.get(v))}
    # versions recomputed and still to be used, after each step of the fold
    max_live = max(
        sum(1 for v in versions[: i + 1] if last_use.get(v, -1) > i) for i in range(len(versions))
    )
    assert len(versions) > 150 and max_live <= 4

    tracemalloc.start()
    try:
        VersionLedger.read_jsonl(out / "ledger.jsonl")
        _, ledger_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        checks = replay_run(out / "ledger.jsonl", out / "payloads")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all_match(checks)
    # the ledger, the live versions, and one version's working set: its
    # decoded payload, dense update, merge temporaries and hashed bytes
    bound = ledger_peak + (max_live + 8) * vector_bytes
    assert bound < len(versions) * vector_bytes / 4
    assert peak < bound, (peak, bound)


def test_payload_store_reads_on_demand_and_is_read_only(tmp_path):
    out = _run(tmp_path)
    archive = load_archive(out / "payloads")
    blobs = read_blobs(out / "payloads")
    names = sorted(blobs)
    assert list(archive) == names and len(archive) == len(names)
    assert all(archive[name] == blob for name, blob in blobs.items())
    assert "0" * 16 not in archive
    with pytest.raises(KeyError):
        archive["0" * 16]
    # a blob is read when asked for, so a later edit on disk shows
    edited = b"E" * len(blobs[names[0]])
    edit_blob(out / "payloads", names[0], lambda _: edited)
    assert archive[names[0]] == edited
    with pytest.raises(TypeError):
        archive[names[0]] = b"x"


# ---------------------------------------------------------------------------
# malformed ledger records
# ---------------------------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The artifact directory of a golden config, run once per module."""
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = tmp_path_factory.mktemp(name) / "run"
            run_experiment(load_config(GOLDEN_DIR / f"{name}.json"), runs[name])
        return runs[name]

    return get


def _tampered_ledger(out, tmp_path, edit):
    """A copy of the run's ledger with `edit` applied to g1's record."""
    rows = [json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()]
    edit(next(r for r in rows if r["version_id"] == "g1"))
    path = tmp_path / "ledger.jsonl"
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return path


@pytest.mark.parametrize(
    "golden, edit, error",
    [
        ("g06_async_waves", lambda r: r["detail"].update(alpha0=2.0), "async_alpha0 must lie in"),
        ("g06_async_waves", lambda r: r["detail"].update(base_round=5), "base_round is ahead"),
        ("g06_async_waves", lambda r: r["detail"].pop("decay"), "KeyError: 'decay'"),
        (
            "g06_async_waves",
            lambda r: r["contributors"][0].update(base_version="g99"),
            "KeyError: 'g99'",
        ),
        ("g05_gossip_ring", lambda r: r["detail"].update(edges=[[0, 0]]), "self-loop at node 0"),
        ("g05_gossip_ring", lambda r: r["detail"].update(edges=[[0, 1]]), "not connected"),
        ("g05_gossip_ring", lambda r: r["detail"].update(steps=-1), "steps must be >= 0"),
        (
            "g04_hierarchical_compressed",
            lambda r: r["detail"].update(groups=[]),
            "no edge groups given",
        ),
        (
            "g04_hierarchical_compressed",
            lambda r: r["detail"].update(groups=[[0, []]]),
            "has no members",
        ),
    ],
    ids=[
        "async-alpha0",
        "async-base-round",
        "async-no-decay",
        "async-unknown-base",
        "gossip-self-loop",
        "gossip-disconnected",
        "gossip-negative-steps",
        "hierarchical-no-groups",
        "hierarchical-empty-group",
    ],
)
def test_record_that_does_not_recompute_is_a_verdict(
    golden_run, tmp_path, capsys, golden, edit, error
):
    out = golden_run(golden)
    ledger_path = _tampered_ledger(out, tmp_path, edit)
    checks = replay_run(ledger_path, out / "payloads")
    assert checks == _eager_verify(VersionLedger.read_jsonl(ledger_path), out / "payloads")
    status = {c.version_id: c.status for c in checks}
    assert status["g0"] == STATUS_MATCH and status["g1"] == STATUS_HASH_MISMATCH
    assert len(status) > 2
    assert all(status[v] == STATUS_TAINTED_PARENT for v in list(status)[2:])
    assert error in checks[1].note

    # the CLI prints every verdict and exits 1, not as a config error
    code = main(["replay", "--ledger", str(ledger_path), "--archive", str(out / "payloads")])
    printed = capsys.readouterr().out
    assert code == 1
    assert all(f"{c.version_id}: {c.status}" in printed for c in checks)


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda r: r.update(mode="bogus"), "unknown aggregation_mode 'bogus'"),
        (lambda r: r["contributors"][0].update(n_samples=0), "n_samples must be positive"),
        (lambda r: r.pop("params_hash"), "KeyError: 'params_hash'"),
    ],
    ids=["unknown-mode", "zero-samples", "missing-field"],
)
def test_record_that_fails_its_checks_names_its_line(golden_run, tmp_path, edit, error):
    out = golden_run("g03_secure_gated")
    ledger_path = _tampered_ledger(out, tmp_path, edit)
    with pytest.raises(IntegrityError, match=r"^ledger line 2 \(g1\): ") as err:
        VersionLedger.read_jsonl(ledger_path)
    assert error in str(err.value)


def test_ledger_line_that_is_not_json_names_its_line(golden_run, tmp_path, capsys):
    out = golden_run("g03_secure_gated")
    lines = (out / "ledger.jsonl").read_text().splitlines()
    lines[1] = lines[1][:-1]
    ledger_path = tmp_path / "ledger.jsonl"
    ledger_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError, match=r"^ledger line 2: JSONDecodeError: "):
        VersionLedger.read_jsonl(ledger_path)
    code = main(["replay", "--ledger", str(ledger_path), "--archive", str(out / "payloads")])
    assert code == 1
    assert "IntegrityError: ledger line 2: " in capsys.readouterr().err
