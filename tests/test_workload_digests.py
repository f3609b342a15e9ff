"""Frozen artifacts of the four benchmark workloads at two seeds.

workload_digests.json holds a copy of each benchmark workload's config
(bench/workloads.json) and, per seed, the sha256 of every artifact the run
writes except run_meta.json, as test_golden.py digests the goldens. The
copy keeps a change to the benchmark's workload set from moving this test.
A mismatch means a change altered the output of a workload the benchmark
measures, which a speed-up must not do.

Run as a script to see which entries a change moves, and with --write to
regenerate the file:

    PYTHONPATH=src python tests/test_workload_digests.py [--write]
"""

import json
from pathlib import Path

import pytest

from fedsim.config import parse_config
from fedsim.runner import run_experiment
from test_golden import _digest_tree

DIGESTS_PATH = Path(__file__).parent / "workload_digests.json"
DIGESTS = json.loads(DIGESTS_PATH.read_text())
CASES = [
    (name, int(seed))
    for name, entry in DIGESTS["workloads"].items()
    for seed in sorted(entry["digests"])
]


def _run(name: str, seed: int, out: Path) -> dict[str, str]:
    run_experiment(parse_config(DIGESTS["workloads"][name]["config"], seed), out)
    return _digest_tree(out)


def test_file_covers_four_workloads_at_two_seeds():
    assert len(DIGESTS["workloads"]) == 4
    assert all(sorted(e["digests"]) == ["1", "2"] for e in DIGESTS["workloads"].values())


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-seed{s}" for n, s in CASES])
def test_workload_artifacts_match_frozen_digests(name, seed, tmp_path):
    assert _run(name, seed, tmp_path / "run") == DIGESTS["workloads"][name]["digests"][str(seed)]


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="diff the workload runs against their digests")
    parser.add_argument("--write", action="store_true", help="rewrite workload_digests.json")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in CASES:
            fresh = _run(name, seed, Path(tmp) / f"{name}-{seed}")
            frozen = DIGESTS["workloads"][name]["digests"][str(seed)]
            moved = sorted(k for k in fresh.keys() | frozen.keys() if fresh.get(k) != frozen.get(k))
            print(f"{name} seed {seed}: {', '.join(moved) or 'unchanged'}")
            DIGESTS["workloads"][name]["digests"][str(seed)] = fresh
    if args.write:
        DIGESTS_PATH.write_text(json.dumps(DIGESTS, indent=2, sort_keys=True) + "\n")
