"""Spans timed from outside the program.

A traced repetition rebinds module attributes at the import sites the
runner, client and replay code call through (``from .models import
local_train`` binds a separate name in each module, so the site matters),
records one span per call in memory, and folds the spans into per-name
totals when the repetition ends. Nothing in fedsim is edited.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (span name, module, attribute, counters)
#
# Counters read a call's arguments and result:
#   samples   -- training samples processed: len(data) * hp.epochs
#   bytes     -- bytes hashed, or bytes of a simulated message
#   delivered -- 1 when a simulated message was delivered
SITES = (
    ("data.partition", "fedsim.runner", "partition", None),
    ("data.make_holdout", "fedsim.runner", "make_holdout", None),
    ("orchestrator.cluster_clients", "fedsim.runner", "cluster_clients", None),
    ("models.local_train.probe", "fedsim.runner", "local_train", None),
    ("orchestrator.select_clients", "fedsim.runner", "select_clients", None),
    ("models.local_train", "fedsim.client", "local_train", "train"),
    ("models.evaluate.client", "fedsim.client", "evaluate", None),
    ("models.evaluate.deploy", "fedsim.runner", "evaluate", None),
    ("monitoring.evaluate_global", "fedsim.runner", "evaluate_global", None),
    ("client.handle_broadcast", "fedsim.client", "ClientRuntime.handle_broadcast", None),
    ("client.compress", "fedsim.client", "compress", None),
    ("client.encode_payload_body", "fedsim.runner", "encode_payload_body", None),
    ("client.decode_payload_body.replay", "fedsim.replay", "decode_payload_body", None),
    ("wire.fnv1a64", "fedsim.wire", "fnv1a64", "hash"),
    ("simnet.send", "fedsim.runner", "send", "send"),
    ("aggregation.fedavg", "fedsim.runner", "fedavg", None),
    ("aggregation.async_merge", "fedsim.runner", "async_merge", None),
    ("aggregation.gossip_round", "fedsim.runner", "gossip_round", None),
    ("aggregation.node_mean", "fedsim.runner", "node_mean", None),
    ("aggregation.pairwise_pads", "fedsim.runner", "pairwise_pads", None),
    ("aggregation.mask_submission", "fedsim.runner", "mask_submission", None),
    ("aggregation.secure_sum", "fedsim.runner", "secure_sum", None),
    ("aggregation.replay.fedavg", "fedsim.replay", "fedavg", None),
    ("aggregation.replay.async_merge", "fedsim.replay", "async_merge", None),
    ("aggregation.replay.run_gossip", "fedsim.replay", "run_gossip", None),
    ("aggregation.replay.node_mean", "fedsim.replay", "node_mean", None),
    ("aggregation.replay.secure_sum", "fedsim.replay", "secure_sum", None),
    ("runner.write_artifacts", "fedsim.runner", "ExperimentRunner._write_artifacts", None),
    ("replay.load_archive", "fedsim.replay", "load_archive", None),
    ("replay.verify_ledger", "fedsim.replay", "verify_ledger", None),
)


def _counters(kind, args, result) -> dict[str, int]:
    if kind == "train":
        return {"samples": len(args[2]) * args[3].epochs}
    if kind == "hash":
        return {"bytes": len(args[0])}
    if kind == "send":
        return {"bytes": args[3], "delivered": int(result.delivered_at is not None)}
    raise ValueError(f"unknown counter kind {kind!r}")


class Tracer:
    """In-memory span recorder for one repetition.

    A span is (id, parent id, name, start, end, counters). The parent
    is whichever span was open when the call began; the program is single
    threaded, so a stack is enough.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int | None] = [None]

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children number after it
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, t0, t1, None)
        if counter is not None:
            self.spans[sid] = (sid, parent, name, t0, t1, _counters(counter, args, result))
        return result

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def install(self) -> None:
        """Rebind every site in SITES to a recording wrapper."""
        for name, module_name, attr, counter in SITES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), counter))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls on one thread never overlap, so the covered time is the sum of
    the children's durations.
    """
    out = [t1 - t0 for _, _, _, t0, t1, _ in spans]
    for _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            out[parent] -= t1 - t0
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, per-call durations
    and the sum of each counter."""
    own = self_times(spans)
    totals: dict[str, dict] = {}
    for sid, _, name, t0, t1, counters in spans:
        row = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["s"] += t1 - t0
        row["self_s"] += own[sid]
        row["durations"].append(t1 - t0)
        for key, value in (counters or {}).items():
            row[key] = row.get(key, 0) + value
    return totals


def run_attribution(spans) -> tuple[float, float]:
    """The runner.run span's duration, and its self time plus the self time
    of every span beneath it.

    The two agree when the span tree is well formed: every second of the
    run is attributed to exactly one span.
    """
    own = self_times(spans)
    (root,) = [s for s in spans if s[2] == "runner.run"]
    inside = {root[0]}
    attributed = own[root[0]]
    for sid, parent, _, _, _, _ in spans:  # a parent's id is below its children's
        if parent in inside:
            inside.add(sid)
            attributed += own[sid]
    return root[4] - root[3], attributed
