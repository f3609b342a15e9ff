"""Command line front end: run, replay, report.

Exit codes separate the operational failure classes so wrapping scripts
can react without parsing stderr: 2 for config rejection, 3 for a run
whose selection never produced a participant, 4 for numerical
divergence, 1 for anything else.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, DivergenceError, SelectionStarvationError
from .replay import STATUS_MATCH, all_match, replay_run
from .report import report_run
from .runner import run_experiment

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_STARVED = 3
EXIT_DIVERGED = 4

OUT_DIR_ENV = "FEDSIM_OUT_DIR"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim", description="deterministic federated learning simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment config")
    p_run.add_argument(
        "--out",
        default=None,
        help=f"artifact directory (default: ${OUT_DIR_ENV}/<run_id> or runs/<run_id>)",
    )
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the config's master seed"
    )

    p_replay = sub.add_parser(
        "replay", help="recompute a run's version lineage from its archive"
    )
    p_replay.add_argument("--ledger", required=True, help="path to ledger.jsonl")
    p_replay.add_argument("--archive", required=True, help="path to the payloads directory")

    p_report = sub.add_parser("report", help="summarize a finished run as CSV")
    p_report.add_argument("--run", required=True, help="run artifact directory")
    p_report.add_argument("--out", default=None, help="report path (default: <run>/report.csv)")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if args.out is not None:
        out_dir = Path(args.out)
    elif os.environ.get(OUT_DIR_ENV):
        out_dir = Path(os.environ[OUT_DIR_ENV]) / cfg.run_id
    else:
        out_dir = Path("runs") / cfg.run_id
    result = run_experiment(cfg, out_dir)
    last = result.metrics[-1]
    ledger = result.ledger
    aggregated = len({ledger.get(v).created_at_round for v in ledger.versions()[1:]})
    print(
        f"run {result.run_id}: {result.rounds} rounds, {aggregated} aggregated, "
        f"final {result.final_version_id}"
    )
    if not aggregated:
        # the run completed, so it still exits 0
        warning = "warning: no round aggregated, so the model is the initial one"
        if result.round_failures:
            first = result.round_failures[0]
            warning += f"; round {first['round']} failed: {first['reason']}"
        print(warning, file=sys.stderr)
    print(f"global accuracy {last['global_acc']:.4f}, loss {last['global_loss']:.4f}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def _cmd_replay(args) -> int:
    checks = replay_run(args.ledger, args.archive)
    for c in checks:
        line = f"{c.version_id}: {c.status}"
        if c.note:
            line += f" ({c.note})"
        print(line)
    matched = sum(1 for c in checks if c.status == STATUS_MATCH)
    print(f"{matched}/{len(checks)} versions match")
    return EXIT_OK if all_match(checks) else EXIT_ERROR


def _cmd_report(args) -> int:
    target = report_run(args.run, args.out)
    print(f"report written to {target}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"run": _cmd_run, "replay": _cmd_replay, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SelectionStarvationError as e:
        print(f"selection starved: {e}", file=sys.stderr)
        return EXIT_STARVED
    except DivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
