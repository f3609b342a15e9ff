"""fedsim benchmark: end-to-end metrics per workload, and a traced run that
times each layer from outside.

    python3 bench/run.py --workload fedavg_mlp50 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload all --seed 1 --trace 1  # per-layer metrics
    python3 bench/run.py --smoke                             # self-test

Each repetition (set-up, run, replay and report of one experiment) runs in
a fresh single-threaded child process, one at a time, until --seconds have
passed. The last line of stdout is one JSON object: the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, PER_LAYER, WORKLOADS, summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 3
CHILD_TIMEOUT_S = 55
UNITS = {name: unit for name, unit, _, _ in END_TO_END} | {m.name: m.unit for m in PER_LAYER}


def load_workloads() -> dict[str, dict]:
    return {w["name"]: w for w in json.loads((BENCH / "workloads.json").read_text())["workloads"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def repetition(config: dict, seed: int, traced: bool, want_env: bool) -> dict:
    """One operation in a fresh child process; failures come back as ok=False."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK))
    spec = {"config": config, "seed": seed, "run_dir": str(tmp / "run"), "trace": traced, "env": want_env}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"repetition exceeded {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def measure(config: dict, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repeat until the next repetition would end past `seconds` (at least
    MIN_REPS). With tracing, every second repetition is traced."""
    reps: list[dict] = []
    start = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = perf_counter()
        rep = repetition(config, seed, traced, want_env=not reps)
        rep["traced"] = traced
        reps.append(rep)
        last = perf_counter() - t0
        if len(reps) >= MIN_REPS and perf_counter() - start + last > seconds:
            return reps


def judge(reps: list[dict]) -> None:
    """Mark as failed every repetition whose artifact digest differs from the
    first successful one: a seeded config must give byte-identical artifacts,
    traced or not."""
    reference = next((r["digest"] for r in reps if r["ok"]), None)
    for r in reps:
        if r["ok"] and r["digest"] != reference:
            r["ok"] = False
            r["error"] = f"artifact digest {r['digest'][:16]} differs from {reference[:16]}"


def end_to_end(reps: list[dict]) -> dict[str, dict]:
    """Every end-to-end metric, from the untraced successful repetitions;
    "value" is the statistic the result line carries."""
    good = [r for r in reps if r["ok"] and not r["traced"]]
    samples = {
        "setup_s": [r["setup_s"] for r in good],
        "run_s": [r["run_s"] for r in good],
        "replay_s": [r["replay_s"] for r in good],
        "train_samples_per_s": [r["train_samples"] / r["run_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "final_global_loss": [r["final_global_loss"] for r in good],
    }
    failed = sum(not r["ok"] for r in reps)
    out = {"ops_failed_ratio": {"value": failed / len(reps), "n": len(reps)}}
    for name, _, better, stat in END_TO_END:
        if name in samples:
            s = summary(samples[name], better)
            out[name] = s | {"value": s[stat]}
    return out


def fastest_traced(reps: list[dict]) -> dict:
    """The traced repetition with the shortest run. Its per-layer values are
    reported together, so that they add up to its own run time."""
    traced = [r for r in reps if r["ok"] and r["traced"]]
    return min(traced, key=lambda r: r["layers"]["runner.run.traced_s"])


def fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and not x.is_integer():
        return f"{x:.6g}"
    return f"{int(x)}" if isinstance(x, float) else str(x)


def print_environment(reps: list[dict], loadavg) -> None:
    first = next((r for r in reps if "numpy" in r), {})
    print(
        f"# env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"loadavg_at_start={' '.join(f'{x:.2f}' for x in loadavg)} "
        f"python={platform.python_version()} numpy={first.get('numpy', '?')} "
        f"blas={first.get('blas', '?')} child_threads=1"
    )


def print_end_to_end(name: str, seed: int, reps: list[dict], e2e: dict) -> None:
    failed = sum(not r["ok"] for r in reps)
    print(f"== {name} seed {seed}: {len(reps)} operations, {failed} failed")
    for r in reps:
        if not r["ok"]:
            print(f"   failed: {r['error']}")
    print(f"   {'metric':<22} {'value':>12} {'stat':>6} {'median':>12} {'best':>12} {'tail':>16} {'n':>3}  unit")
    for metric, unit, _, stat in END_TO_END:
        s = e2e[metric]
        tail = f"p{fmt(s['tail_p'])}={fmt(s['tail'])}" if s.get("tail_p") else "-"
        print(
            f"   {metric:<22} {fmt(s['value']):>12} {stat:>6} {fmt(s.get('median')):>12} "
            f"{fmt(s.get('best')):>12} {tail:>16} {s['n']:>3}  {unit}"
        )
    digests = sorted({r["digest"] for r in reps if "digest" in r})
    print(f"   artifact digest: {', '.join(digests) or '-'}")


def print_trace(reps: list[dict], rep: dict, e2e: dict) -> None:
    layers = rep["layers"]
    n = sum(r["ok"] and r["traced"] for r in reps)
    print(f"   per-layer metrics of the fastest of {n} traced repetitions:")
    for m in PER_LAYER:
        print(f"   {m.name:<38} {fmt(layers[m.name]):>14}  {m.unit}")
    run_span, attributed = rep["run_attribution"]
    print(
        f"   runner.run {run_span:.6f} s; runner.self_s plus the self time of every span "
        f"beneath it {attributed:.6f} s (residual {run_span - attributed:.1e} s)"
    )
    untraced = e2e["run_s"]["best"]
    print(
        f"   tracing overhead: traced run_s {run_span:.6f} s vs untraced best {untraced:.6f} s: "
        f"{run_span - untraced:+.6f} s ({(run_span / untraced - 1) * 100:+.1f}%)"
    )
    print(f"   {'span':<38} {'calls':>6} {'total_s':>10} {'self_s':>10} {'p50_ms':>9} {'tail_ms':>14}")
    for name, row in sorted(rep["span_table"].items(), key=lambda kv: -kv[1]["s"]):
        s = summary(row["durations"])
        tail = f"p{fmt(s['tail_p'])}={s['tail'] * 1e3:.4g}" if s["tail_p"] else "-"
        print(
            f"   {name:<38} {row['calls']:>6} {row['s']:>10.5f} {row['self_s']:>10.5f} "
            f"{s['median'] * 1e3:>9.4g} {tail:>14}"
        )


def write_spans(name: str, seed: int, reps: list[dict]) -> Path:
    """Write the spans held in memory, one JSON line each."""
    path = WORK / "spans" / f"{name}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, r in enumerate(reps):
            for sid, parent, span, t0, t1, counters in r.get("spans", ()):
                row = {"workload": name, "rep": i, "id": sid, "parent": parent, "name": span, "start": t0, "end": t1}
                fh.write(json.dumps(row | (counters or {})) + "\n")
    return path


def run_workload(name: str, config: dict, seed: int, seconds: float, trace: bool) -> tuple[list[dict], dict]:
    loadavg = os.getloadavg()
    reps = measure(config, seed, seconds, trace)
    judge(reps)
    print_environment(reps, loadavg)
    if not any(r["ok"] and not r["traced"] for r in reps) or (
        trace and not any(r["ok"] and r["traced"] for r in reps)
    ):
        for r in reps:
            print(f"   failed: {r['error']}", file=sys.stderr)
        raise SystemExit(f"{name}: no successful repetition to report")
    e2e = end_to_end(reps)
    print_end_to_end(name, seed, reps, e2e)
    if not trace:
        return reps, {m: e2e[m]["value"] for m in e2e}
    rep = fastest_traced(reps)
    print_trace(reps, rep, e2e)
    print(f"   spans written to {write_spans(name, seed, reps).relative_to(ROOT)}")
    return reps, rep["layers"]


def result_line(reps: list[dict], metrics: dict[str, dict]) -> dict:
    failed = sum(not r["ok"] for r in reps)
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}


def smoke(workloads: dict[str, dict], spec: dict) -> int:
    """One round per workload: every metric is emitted with its unit, every
    layer records calls where README.md says it should move, and the docs and
    BENCHMARK.json name only metrics defined in metrics.py."""
    problems = []
    readme = (BENCH / "README.md").read_text()
    defined = {n: (u, b) for n, u, b, _ in END_TO_END} | {m.name: (m.unit, m.better) for m in PER_LAYER}
    for m in spec["end_to_end"] + spec["per_layer"]:
        if defined.get(m["name"]) != (m["unit"], m["better"]):
            problems.append(f"BENCHMARK.json: {m['name']} {m['unit']} {m['better']} is not so in metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads) or list(workloads) != list(WORKLOADS):
        problems.append("BENCHMARK.json, workloads.json and metrics.WORKLOADS list different workloads")
    for n in [n for n, _, _, _ in END_TO_END] + [m.name for m in PER_LAYER] + list(workloads):
        if f"`{n}`" not in readme:
            problems.append(f"README.md does not document `{n}`")
    for name, w in workloads.items():
        reps = measure({**w["config"], "rounds": 1}, 1, 0, trace=True)
        judge(reps)
        for r in reps:
            if not r["ok"]:
                problems.append(f"{name}: {r['error']}")
        if not all(r["ok"] for r in reps):
            continue
        e2e = end_to_end(reps)
        for metric, unit, _, _ in END_TO_END:
            if metric not in e2e or not math.isfinite(e2e[metric]["value"]) or not unit:
                problems.append(f"{name}: end-to-end metric {metric} missing")
        calls = {}
        for r in reps:
            for span, row in r.get("span_table", {}).items():
                calls[span] = calls.get(span, 0) + row["calls"]
        for m in PER_LAYER:
            if name in m.moves and not any(calls.get(s, 0) for s in m.spans):
                problems.append(f"{name}: {m.name} recorded no call of {'/'.join(m.spans)}")
        for r in reps:
            if r["traced"]:
                run_span, attributed = r["run_attribution"]
                if abs(run_span - attributed) > 1e-6 * run_span:
                    problems.append(f"{name}: spans beneath runner.run do not add up to it")
        print(f"smoke {name}: {len(reps)} operations, {len(calls)} span names")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round per workload, then check the outputs")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "fedsim" / "__init__.py").is_file():
        print(f"fedsim sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(workloads, spec)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    chosen = list(workloads) if args.workload == "all" else [args.workload]
    all_reps, all_metrics = [], {}
    for name in chosen:
        reps, values = run_workload(name, workloads[name]["config"], args.seed, seconds, bool(args.trace))
        metrics = {n: {"value": values[n], "unit": UNITS[n]} for n in names}
        if len(chosen) > 1:
            print(json.dumps(result_line(reps, metrics)))
        all_reps += reps
        all_metrics |= {f"{name}.{n}": m for n, m in metrics.items()} if len(chosen) > 1 else metrics
    print(json.dumps(result_line(all_reps, all_metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
