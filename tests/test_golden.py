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

from fedsim.config import AGGREGATION_MODES, ALL_FLAGS, parse_config
from fedsim.runner import run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIGS = sorted(GOLDEN_DIR.glob("g*.json"))
MANIFEST = json.loads((GOLDEN_DIR / "checksums.json").read_text())


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
