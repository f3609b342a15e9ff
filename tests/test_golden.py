"""Frozen-output regression suite.

Each config under tests/golden/ is rerun and every artifact it produces
(run_meta.json excluded, it carries wall-clock timestamps) must hash to
the value frozen in checksums.json.  A mismatch means the simulator's
output changed for an existing config, which is a breaking change until
the manifest is deliberately regenerated.

Run as a script to see which entries a change moves, and with --write to
regenerate the manifest:

    PYTHONPATH=src python tests/test_golden.py [--write]
"""

import hashlib
import json
from pathlib import Path

import pytest

from fedsim import wire
from fedsim.config import AGGREGATION_MODES, ALL_FLAGS, FLAG_CO_VERSIONING, parse_config
from fedsim.errors import DivergenceError
from fedsim.replay import all_match, load_archive, replay_run, verify_ledger
from fedsim.runner import ExperimentRunner, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIGS = sorted(GOLDEN_DIR.glob("g*.json"))
MANIFEST = json.loads((GOLDEN_DIR / "checksums.json").read_text())
VERSIONED = [
    cf for cf in CONFIGS if parse_config(json.loads(cf.read_text())).has(FLAG_CO_VERSIONING)
]


def _digest_tree(out: Path) -> dict[str, str]:
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_dir() or p.name == "run_meta.json":
            continue
        files[p.relative_to(out).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return files


def test_suite_covers_every_mode_and_flag():
    modes = set()
    flags = set()
    for cf in CONFIGS:
        cfg = parse_config(json.loads(cf.read_text()))
        modes.add(cfg.aggregation_mode)
        flags |= cfg.flags
    assert modes == set(AGGREGATION_MODES)
    assert flags == set(ALL_FLAGS)


def test_manifest_lists_every_config():
    assert sorted(MANIFEST) == [cf.name for cf in CONFIGS]
    assert len(CONFIGS) == 8


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_artifacts_match_frozen_checksums(config_path, tmp_path):
    cfg = parse_config(json.loads(config_path.read_text()))
    out = tmp_path / config_path.stem
    run_experiment(cfg, out)
    assert _digest_tree(out) == MANIFEST[config_path.name]


@pytest.mark.parametrize("config_path", VERSIONED, ids=lambda p: p.stem)
def test_versioned_golden_replays_to_match(config_path, tmp_path):
    out = tmp_path / config_path.stem
    res = run_experiment(parse_config(json.loads(config_path.read_text())), out)
    checks = replay_run(out / "ledger.jsonl", out / "payloads")
    assert len(checks) == len(res.ledger) and all_match(checks)


@pytest.mark.parametrize("cap", [wire.SEGMENT_BYTES, 4096], ids=["default-cap", "4KiB-cap"])
def test_only_a_lone_record_takes_a_segment_past_the_cap(cap, tmp_path, monkeypatch):
    monkeypatch.setattr(wire, "SEGMENT_BYTES", cap)
    shared = lone = 0  # segments holding several records, and one past the cap
    for cf in VERSIONED:
        out = tmp_path / cf.stem
        run_experiment(parse_config(json.loads(cf.read_text())), out)
        index = wire.index_segments(out / "payloads")
        for segment in sorted((out / "payloads").iterdir()):
            records = sum(1 for loc in index.values() if loc[0] == segment)
            size = segment.stat().st_size
            assert size <= cap or records == 1, (segment, size, records)
            shared += records > 1
            lone += size > cap
        assert all_match(replay_run(out / "ledger.jsonl", out / "payloads"))
    assert shared
    if cap < wire.SEGMENT_BYTES:
        assert lone


def test_diverged_run_segments_replay_every_version_it_minted(tmp_path):
    raw = {
        "rounds": 3,
        "n_clients": 8,
        "hp": {"learning_rate": 1e308, "batch_size": 5},
        "optional_components": ["co_versioning"],
    }
    run = ExperimentRunner(parse_config(raw), tmp_path / "run")
    with pytest.raises(DivergenceError):
        run.run()
    # no ledger.jsonl is written on failure; the runner's ledger is the record
    checks = verify_ledger(run.ledger, load_archive(tmp_path / "run" / "payloads"))
    assert len(checks) == len(run.ledger) > 1 and all_match(checks)


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="diff the goldens against checksums.json")
    parser.add_argument("--write", action="store_true", help="rewrite checksums.json")
    args = parser.parse_args()
    fresh = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cf in CONFIGS:
            out = Path(tmp) / cf.stem
            run_experiment(parse_config(json.loads(cf.read_text())), out)
            fresh[cf.name] = _digest_tree(out)
    for name, digests in fresh.items():
        frozen = MANIFEST.get(name, {})
        moved = sorted(k for k in digests.keys() | frozen.keys() if digests.get(k) != frozen.get(k))
        print(f"{name}: {', '.join(moved) or 'unchanged'}")
    if args.write:
        (GOLDEN_DIR / "checksums.json").write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
