"""Deterministic discrete-event network substrate.

Messages between server, optional edge nodes, and clients resolve to either
a delivery time or a drop. All randomness comes from the net seed keyed by
(sender, receiver, seq), so a run is a pure function of its configs: the
same messages in the same order resolve identically.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any

import numpy as np


EVENT_DELIVER = "deliver"
EVENT_TIMER = "timer"
_EVENT_KINDS = (EVENT_DELIVER, EVENT_TIMER)

_SALT_SEND = 201


@dataclass(frozen=True)
class NetConfig:
    latency_ms_min: float = 10.0
    latency_ms_max: float = 100.0
    dropout_prob: float = 0.05
    bandwidth_bytes_per_s: float | None = None  # None means unlimited
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency_ms_min < 0 or self.latency_ms_max < 0:
            raise ValueError("latencies must be non-negative")
        if self.latency_ms_min > self.latency_ms_max:
            raise ValueError("latency_ms_min must not exceed latency_ms_max")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise ValueError("dropout_prob must lie in [0, 1)")
        if self.bandwidth_bytes_per_s is not None and self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive (or None for unlimited)")


@dataclass(frozen=True)
class Envelope:
    """One transmission attempt, resolved at creation time."""

    sender: int
    receiver: int
    byte_size: int
    sent_at: float
    delivered_at: float | None  # None means the message was dropped


def send(
    cfg: NetConfig,
    sender: int,
    receiver: int,
    byte_size: int,
    sent_at: float,
    seq: int,
) -> Envelope:
    """Resolve one transmission. Randomness is keyed by (sender, receiver, seq)."""
    if byte_size < 1:
        raise ValueError("byte_size must be >= 1")
    rng = np.random.default_rng([cfg.seed, _SALT_SEND, sender, receiver, seq])
    if rng.random() < cfg.dropout_prob:
        return Envelope(sender, receiver, byte_size, sent_at, None)
    transfer = 0.0
    if cfg.bandwidth_bytes_per_s is not None:
        transfer = byte_size / cfg.bandwidth_bytes_per_s
    latency = rng.uniform(cfg.latency_ms_min, cfg.latency_ms_max) / 1000.0
    return Envelope(sender, receiver, byte_size, sent_at, sent_at + transfer + latency)


# ---------------------------------------------------------------------------
# event queue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimEvent:
    time_s: float
    seq: int
    kind: str
    payload: Any = None


class EventQueue:
    """Min-heap of events ordered by (time_s, seq); seq is the issue order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._next_seq = 0

    def schedule(self, time_s: float, kind: str, payload: Any = None) -> SimEvent:
        if not math.isfinite(time_s):
            raise ValueError("event time must be finite")
        if kind not in _EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = SimEvent(time_s, self._next_seq, kind, payload)
        self._next_seq += 1
        heapq.heappush(self._heap, (time_s, event.seq, event))
        return event

    def pop(self) -> SimEvent | None:
        """Earliest event, ties broken by issue order; None when empty."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)
