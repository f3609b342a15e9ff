"""One benchmark repetition, run by run.py in a fresh process.

Reads a JSON spec on stdin, drives fedsim through its public entry points
(parse_config, ExperimentRunner, run, replay_run, report_run) and prints
one JSON result line on stdout. A failure of any step is reported in the
result rather than raised, so the parent can count it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def artifact_digest(run_dir: Path) -> tuple[str, int, int]:
    """sha256 over every artifact but run_meta.json (the one file with
    wall-clock content), plus the file count and byte total of the whole
    directory."""
    h = hashlib.sha256()
    files = 0
    size = 0
    for p in sorted(run_dir.rglob("*")):
        if p.is_dir():
            continue
        data = p.read_bytes()
        files += 1
        size += len(data)
        if p.name != "run_meta.json":
            h.update(p.relative_to(run_dir).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), files, size


def blas_build() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def repetition(spec: dict) -> dict:
    import fedsim
    from fedsim import parse_config, replay_run, report_run
    from fedsim.runner import ExperimentRunner

    if not Path(fedsim.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported fedsim from {fedsim.__file__}, not from {SRC}")

    from spans import Tracer, layer_totals, run_attribution

    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
    run_dir = Path(spec["run_dir"])

    def setup():
        cfg = tracer.call("config.parse_config", parse_config, (spec["config"], spec["seed"]))
        return cfg, ExperimentRunner(cfg, run_dir)

    cfg, runner = tracer.call("runner.setup", setup)
    tracer.call("runner.run", runner.run)
    checks = tracer.call(
        "replay.replay_run", replay_run, (run_dir / "ledger.jsonl", run_dir / "payloads")
    )
    digest, files, size = artifact_digest(run_dir)
    tracer.call("report.report_run", report_run, (run_dir, run_dir.parent / "report.csv"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    not_matched = [c.version_id for c in checks if c.status != "MATCH"]
    if not_matched:
        raise RuntimeError(f"replay: {len(not_matched)} versions not MATCH, first {not_matched[0]}")

    events = [json.loads(line) for line in (run_dir / "event_log.jsonl").read_text().splitlines()]
    samples = sum(e["n_samples"] for e in events if e["event"] == "local_train") * cfg.hp.epochs
    last = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
    durations = {name: t1 - t0 for _, parent, name, t0, t1, _ in tracer.spans if parent is None}
    out = {
        "ok": True,
        "digest": digest,
        "setup_s": durations["runner.setup"],
        "run_s": durations["runner.run"],
        "replay_s": durations["replay.replay_run"],
        "train_samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "final_global_loss": last["global_loss"],
    }
    if spec["trace"]:
        from metrics import per_layer

        ledger = runner.ledger
        facts = {
            "versions_minted": len(ledger) - 1,
            "contributors": sum(len(ledger.get(v).contributors) for v in ledger.versions()[1:]),
            "archive_blobs": len(runner._archive),
            "archive_bytes": sum(len(b) for b in runner._archive.values()),
            "versions_held": len(runner.version_params),
            "artifact_files": files,
            "artifact_bytes": size,
        }
        totals = layer_totals(tracer.spans)
        out["layers"] = per_layer(totals, facts)
        out["span_table"] = {
            name: {k: row[k] for k in ("calls", "s", "self_s", "durations")}
            for name, row in totals.items()
        }
        out["run_attribution"] = run_attribution(tracer.spans)
        out["spans"] = tracer.spans
    if spec["env"]:
        import numpy

        out["numpy"] = numpy.__version__
        out["blas"] = blas_build()
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    spec = json.loads(sys.stdin.read())
    try:
        out = repetition(spec)
    except Exception as e:  # any failure of the operation is a counted result
        out = {"ok": False, "error": f"{type(e).__name__}: {e}", "traceback": traceback.format_exc()}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
