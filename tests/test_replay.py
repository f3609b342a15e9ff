"""Recomputing ledgered versions from archived payloads, honest and tampered."""

import json

import pytest

from fedsim.aggregation import VersionLedger
from fedsim.cli import main
from fedsim.config import parse_config
from fedsim.errors import ArchiveError, IntegrityError
from fedsim.replay import (
    STATUS_HASH_MISMATCH,
    STATUS_MATCH,
    STATUS_MISSING_PAYLOAD,
    STATUS_TAINTED_PARENT,
    all_match,
    load_archive,
    replay_run,
    verify_ledger,
)
from fedsim.runner import run_experiment


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
    pfile = out / "payloads" / f"{victim}.bin"
    blob = bytearray(pfile.read_bytes())
    blob[3] ^= 0x01
    pfile.write_bytes(bytes(blob))

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
    root_file = out / "payloads" / f"{ledger.get('g0').params_hash}.bin"
    blob = bytearray(root_file.read_bytes())
    blob[0] ^= 0x80
    root_file.write_bytes(bytes(blob))

    checks = replay_run(out / "ledger.jsonl", out / "payloads")
    assert checks[0].status == STATUS_HASH_MISMATCH
    assert all(c.status == STATUS_TAINTED_PARENT for c in checks[1:])


def test_missing_payload_reported_without_guessing(tmp_path):
    out = _run(tmp_path, net={"dropout_prob": 0.0})
    ledger = VersionLedger.read_jsonl(out / "ledger.jsonl")
    victim = ledger.get("g1").contributors[2].payload_hash
    (out / "payloads" / f"{victim}.bin").unlink()

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
    (out / "payloads" / f"{root_hash}.bin").unlink()
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
