"""Run summaries: fold the per-round artifacts into one cross-checked table.

The table is rebuilt from metrics.jsonl, but the byte counters are
recounted from the raw message log first and any disagreement fails the
report. A summary that silently trusted a single file would hide exactly
the corruption it exists to surface.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import IntegrityError
from .wire import SERVER_SENDER

REPORT_COLUMNS = (
    "round",
    "version_id",
    "global_acc",
    "global_loss",
    "n_selected",
    "n_received",
    "bytes_up",
    "bytes_down",
    "triggers",
    "incentives_paid",
)


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    for line in path.read_text().splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


def build_report(run_dir: str | Path) -> list[dict]:
    run_dir = Path(run_dir)
    metrics_path = run_dir / "metrics.jsonl"
    if not metrics_path.is_file():
        raise IntegrityError(f"{run_dir} has no metrics.jsonl; not a finished run")
    metrics = _read_jsonl(metrics_path)
    if not metrics:
        raise IntegrityError("metrics.jsonl is empty")

    config_path = run_dir / "config.json"
    if config_path.is_file():
        declared = json.loads(config_path.read_text())["rounds"]
        if declared != len(metrics):
            raise IntegrityError(
                f"config declares {declared} rounds but metrics has {len(metrics)} rows"
            )

    up = {}
    down = {}
    for ev in _read_jsonl(run_dir / "event_log.jsonl"):
        if ev.get("event") != "message":
            continue
        r = ev["round"]
        if ev["sender"] == SERVER_SENDER:
            down[r] = down.get(r, 0) + ev["bytes"]
        else:
            up[r] = up.get(r, 0) + ev["bytes"]

    paid = {}
    incentives_path = run_dir / "incentives.jsonl"
    if incentives_path.is_file():
        for row in _read_jsonl(incentives_path):
            paid[row["round"]] = paid.get(row["round"], 0.0) + row["amount"]

    out = []
    for row in metrics:
        r = row["round"]
        if (up.get(r, 0), down.get(r, 0)) != (row["bytes_up"], row["bytes_down"]):
            raise IntegrityError(
                f"round {r}: metrics byte counters disagree with the message log "
                f"({row['bytes_up']}/{row['bytes_down']} recorded, "
                f"{up.get(r, 0)}/{down.get(r, 0)} recounted)"
            )
        out.append({**row, "incentives_paid": paid.get(r, 0.0)})
    return out


def write_report_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def report_run(run_dir: str | Path, out_path: str | Path | None = None) -> Path:
    rows = build_report(run_dir)
    target = Path(out_path) if out_path is not None else Path(run_dir) / "report.csv"
    write_report_csv(rows, target)
    return target
