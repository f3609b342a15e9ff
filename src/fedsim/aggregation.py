"""Combining client updates into new global models.

Five strategies: plain weighted averaging, masked-sum averaging,
staleness-damped asynchronous merging, two-level edge aggregation, and
decentralised gossip mixing.  Weighted averaging, the masked sum and the
gossip node mean share one accumulation, `_weighted_mean`, which owns the
ascending-id order and the overflow rule; edge aggregation is weighted
averaging twice.  The version ledger at the bottom records which
contributions produced each global model so any version can be rebuilt
from archived payloads.
"""

from __future__ import annotations

import bisect
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, IntegrityError, PartitionError, SecureAbortError
from .models import ParameterVector
from .wire import FNV_PRIME, fnv1a64, pcg64_state, seed_words, write_jsonl

PAD_SALT = 301  # stream tag for pairwise mask material

ROOT_VERSION = "g0"

MODE_INIT = "init"
MODE_FEDAVG = "fedavg"
MODE_SECURE = "secure"
MODE_ASYNC = "async"
MODE_HIERARCHICAL = "hierarchical"
MODE_GOSSIP = "gossip"
AGGREGATION_MODES = (
    MODE_INIT,
    MODE_FEDAVG,
    MODE_SECURE,
    MODE_ASYNC,
    MODE_HIERARCHICAL,
    MODE_GOSSIP,
)

SEGMENT_FULL = "full"  # payloads describe the whole parameter vector
SEGMENT_BODY = "body"  # payloads describe the shared leading segment only


# ---------------------------------------------------------------------------
# weighted averaging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedUpdate:
    """One contribution to a round: parameters plus sample-count weight."""

    client_id: int
    params: ParameterVector
    n_samples: int

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")


def _sorted_updates(updates: list[WeightedUpdate]) -> list[WeightedUpdate]:
    ordered = sorted(updates, key=lambda u: u.client_id)
    ids = [u.client_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client_id in update set")
    dim = len(ordered[0].params)
    for u in ordered:
        if len(u.params) != dim:
            raise ValueError(f"dimension mismatch: {len(u.params)} vs {dim}")
    return ordered


def _weighted_mean(rows, total) -> ParameterVector:
    """The sum of values * weight over (id, values, weight) `rows`, taken in
    ascending id order, divided by `total`.

    Multiplying by a weight of 1 is exact, so plain sums share the path.
    An overflow is left to ParameterVector, which raises NonFiniteError.
    """
    ordered = sorted(rows, key=lambda row: row[0])
    acc = np.zeros(len(ordered[0][1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for _, values, weight in ordered:
            acc = acc + values * weight
        mean = acc / total
    return ParameterVector(mean)


def fedavg(updates: list[WeightedUpdate]) -> ParameterVector:
    """Sample-weighted mean of client parameter vectors.

    Accumulation runs in ascending client id order so repeated runs are
    bit-identical.  A single update is returned as-is; multiplying and
    dividing by its own weight would perturb low bits.
    """
    if not updates:
        raise ValueError("need at least one update")
    ordered = _sorted_updates(updates)
    if len(ordered) == 1:
        return ordered[0].params
    total = sum(u.n_samples for u in ordered)
    return _weighted_mean(((u.client_id, u.params.values, u.n_samples) for u in ordered), total)


# ---------------------------------------------------------------------------
# masked-sum aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PadSeeds:
    """The seeding of one secure round's pairwise pads; no pad is drawn.

    Pair (ids[a], ids[b]), a < b, shares the pad that
    np.random.default_rng(seed).uniform(-1, 1, size=d) draws, where seed is
    FNV-1a of (round_seed, PAD_SALT, low, high). `words` holds each pair's
    SeedSequence state words, one row per pair in lexicographic pair order;
    `rng` is reseeded from a row for each draw. Masking accumulators are one
    (len(ids), d) array whose rows follow `ids`.
    """

    ids: tuple[int, ...]
    words: np.ndarray
    rng: np.random.Generator

    def pairs_from(self, low: int) -> tuple[int, np.ndarray]:
        """The row of `low` in `ids` and the state words of its pair with
        each higher id, in ascending order of that id."""
        a = bisect.bisect_left(self.ids, low)
        if a == len(self.ids) or self.ids[a] != low:
            raise ValueError(f"client {low} is not a masking participant")
        n = len(self.ids)
        first = a * (n - 1) - a * (a - 1) // 2  # pairs whose low sits before a
        return a, self.words[first : first + n - 1 - a]


def pairwise_pads(client_ids: list[int], round_seed: int) -> PadSeeds:
    """The seeding of one shared pad per unordered participant pair.

    The FNV-1a state after the (round_seed, PAD_SALT) prefix is taken once;
    the 4 bytes of every pair's low id, then of its high id, are folded into
    it in one pass of uint64 array arithmetic, which wraps as fnv1a64 does,
    and the seed words of all pairs come from one bulk SeedSequence pass.
    """
    ids = tuple(sorted(client_ids))
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client_id")
    if ids and not 0 <= ids[0] <= ids[-1] <= 0xFFFFFFFF:
        raise ValueError("a masking participant id must lie in [0, 2**32)")
    column = np.array(ids, dtype=np.uint64)
    low, high = np.triu_indices(len(ids), 1)
    seeds = np.full(len(low), fnv1a64(struct.pack("<QI", round_seed, PAD_SALT)), dtype=np.uint64)
    prime = np.uint64(FNV_PRIME)
    for part in (column[low], column[high]):
        for shift in (0, 8, 16, 24):  # little-endian, as struct packs "<I"
            seeds ^= (part >> np.uint64(shift)) & np.uint64(0xFF)
            seeds *= prime
    words = seed_words([seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)])
    return PadSeeds(ids, words, np.random.Generator(np.random.PCG64(0)))


def mask_submission(cid: int, accumulators: np.ndarray, pads: PadSeeds) -> None:
    """Draw each pad `cid` shares with a higher id once, add them in place to
    cid's row of `accumulators` and subtract each from the higher id's row.

    `accumulators` is (len(pads.ids), d), its rows in `pads.ids` order.
    Called once per participant, in ascending id order, over rows that start
    at each client's params * n_samples, it leaves every row holding that
    client's masked submission: the client's pads arrive in ascending
    (low, high) pair order, subtracted where it is the higher id and added
    where it is the lower. A call draws its pads as one (k + 1, d) block
    behind a copy of its own row and folds the block into that row from the
    top, so each row sees the same float operations in the same order as
    one pad at a time would give; memory is two (n, d) arrays at most.
    """
    a, words = pads.pairs_from(cid)
    n = len(pads.ids)
    if accumulators.shape[0] != n:
        raise ValueError(f"{accumulators.shape[0]} accumulator rows for {n} participants")
    rng = pads.rng
    bit_generator = rng.bit_generator
    block = np.empty((len(words) + 1, accumulators.shape[1]))
    block[0] = accumulators[a]
    for pad, row in zip(block[1:], words.tolist()):
        bit_generator.state = pcg64_state(row)
        rng.random(out=pad)
    # uniform(-1, 1) is -1 + 2 * u; doubling is exact, so no rounding differs
    pads_drawn = block[1:]
    pads_drawn *= 2.0
    pads_drawn -= 1.0
    # a reduction over the slow axis is a left fold: row + pad 1 + pad 2 ...
    np.add.reduce(block, axis=0, out=accumulators[a])
    accumulators[a + 1 :] -= pads_drawn


def secure_sum(
    submissions: list[tuple[int, np.ndarray]],
    total_n: int,
    expected_ids: list[int],
) -> ParameterVector:
    """Sum masked submissions and divide by the total weight.

    Every expected participant must be present: pads only cancel over
    the full set, so a partial sum is meaningless and the round has to
    be rerun.
    """
    got = sorted(cid for cid, _ in submissions)
    expected = sorted(expected_ids)
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise SecureAbortError(
            f"masked sum participant mismatch: missing {missing}, unexpected {extra}"
        )
    if total_n <= 0:
        raise ValueError("total_n must be positive")
    return _weighted_mean(((cid, values, 1) for cid, values in submissions), total_n)


# ---------------------------------------------------------------------------
# asynchronous merging
# ---------------------------------------------------------------------------


def staleness_factor(alpha0: float, decay: float, staleness: int) -> float:
    """Damping weight alpha0 * (1 + s)^(-decay) for an update s rounds old."""
    if not 0.0 < alpha0 <= 1.0:
        raise ConfigError("async_alpha0 must lie in (0, 1]")
    if decay < 0.0:
        raise ConfigError("async_decay must be >= 0")
    if staleness < 0:
        raise ValueError("staleness must be >= 0")
    return alpha0 * (1.0 + staleness) ** (-decay)


def async_merge(
    global_params: ParameterVector,
    update: ParameterVector,
    current_round: int,
    base_round: int,
    alpha0: float,
    decay: float,
) -> ParameterVector:
    """Blend one late-arriving update into the current global model.

    The step is global + alpha * (update - global).  The delta form
    makes merging a model into itself a no-op at any alpha, and alpha=1
    short-circuits to the update itself.
    """
    if base_round > current_round:
        raise ValueError("base_round is ahead of current_round")
    if len(global_params) != len(update):
        raise ValueError("dimension mismatch")
    alpha = staleness_factor(alpha0, decay, current_round - base_round)
    if alpha == 1.0:
        return update
    # an overflow is left to ParameterVector, which raises NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        merged = global_params.values + alpha * (update.values - global_params.values)
    return ParameterVector(merged)


# ---------------------------------------------------------------------------
# two-level edge aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeGroup:
    """Clients whose updates one edge node combines before the global step."""

    edge_id: int
    member_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.edge_id < 0:
            raise ValueError("edge_id must be non-negative")
        members = tuple(int(m) for m in self.member_ids)
        if not members:
            raise ValueError("edge group has no members")
        if len(set(members)) != len(members):
            raise ValueError("duplicate member in edge group")
        object.__setattr__(self, "member_ids", members)


def hierarchical_aggregate(
    groups: list[EdgeGroup], updates: list[WeightedUpdate]
) -> ParameterVector:
    """Per-group weighted means first, then a weighted mean of group models.

    The groups must cover every contributing client exactly once.
    """
    if not groups:
        raise PartitionError("no edge groups given")
    edge_ids = [g.edge_id for g in groups]
    if len(set(edge_ids)) != len(edge_ids):
        raise PartitionError("duplicate edge_id")
    ordered = _sorted_updates(updates)
    by_id = {u.client_id: u for u in ordered}
    seen: set[int] = set()
    for g in groups:
        for cid in g.member_ids:
            if cid in seen:
                raise PartitionError(f"client {cid} appears in more than one group")
            if cid not in by_id:
                raise PartitionError(f"client {cid} has no update this round")
            seen.add(cid)
    if seen != set(by_id):
        missing = sorted(set(by_id) - seen)
        raise PartitionError(f"clients {missing} not covered by any group")
    edge_updates = []
    for g in sorted(groups, key=lambda g: g.edge_id):
        members = [by_id[cid] for cid in g.member_ids]
        model = fedavg(members)
        weight = sum(u.n_samples for u in members)
        edge_updates.append(WeightedUpdate(g.edge_id, model, weight))
    return fedavg(edge_updates)


# ---------------------------------------------------------------------------
# gossip mixing
# ---------------------------------------------------------------------------


class GossipGraph:
    """Undirected mixing topology with Metropolis edge weights.

    Edge (i, j) carries weight 1/(1 + max(deg_i, deg_j)); whatever mass
    a node does not send to neighbours it keeps.  The implied mixing
    matrix is symmetric with nonnegative rows summing to 1, so a mixing
    step preserves the node mean and never widens the spread.
    """

    def __init__(self, nodes: list[int], edges: list[tuple[int, int]]):
        ordered = tuple(sorted(int(n) for n in nodes))
        if not ordered:
            raise ValueError("graph has no nodes")
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate node id")
        node_set = set(ordered)
        normalized: set[tuple[int, int]] = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a}, {b}) leaves the node set")
            normalized.add((a, b) if a < b else (b, a))
        self.nodes = ordered
        self.edges = tuple(sorted(normalized))
        adjacency: dict[int, list[int]] = {n: [] for n in ordered}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._neighbors = {n: tuple(sorted(adjacency[n])) for n in ordered}
        # breadth-first reachability from the lowest node
        frontier = [ordered[0]]
        visited = {ordered[0]}
        while frontier:
            nxt = []
            for n in frontier:
                for m in self._neighbors[n]:
                    if m not in visited:
                        visited.add(m)
                        nxt.append(m)
            frontier = nxt
        if visited != node_set:
            stranded = sorted(node_set - visited)
            raise ValueError(f"graph is not connected, unreachable nodes {stranded}")
        degree = {n: len(self._neighbors[n]) for n in ordered}
        self._edge_weight = {
            (a, b): 1.0 / (1.0 + max(degree[a], degree[b])) for a, b in self.edges
        }

    @classmethod
    def ring(cls, nodes: list[int]) -> "GossipGraph":
        ordered = sorted(int(n) for n in nodes)
        if len(ordered) < 2:
            raise ValueError("a ring needs at least 2 nodes")
        edges = [(ordered[i], ordered[(i + 1) % len(ordered)]) for i in range(len(ordered))]
        return cls(ordered, edges)

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._neighbors[node]

    def weight(self, a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        return self._edge_weight[key]


def gossip_round(
    graph: GossipGraph, states: dict[int, ParameterVector]
) -> dict[int, ParameterVector]:
    """One synchronous mixing step over the whole graph.

    Each node moves toward its neighbours: x_i + sum_j w_ij (x_j - x_i).
    The delta form keeps an already-agreed state a true fixed point.
    """
    if set(states) != set(graph.nodes):
        raise ValueError("states must cover exactly the graph nodes")
    dim = len(states[graph.nodes[0]])
    for n in graph.nodes:
        if len(states[n]) != dim:
            raise ValueError("dimension mismatch across node states")
    mixed: dict[int, ParameterVector] = {}
    for node in graph.nodes:
        x = states[node].values
        acc = x
        for m in graph.neighbors(node):
            acc = acc + graph.weight(node, m) * (states[m].values - x)
        mixed[node] = ParameterVector(acc)
    return mixed


def run_gossip(
    graph: GossipGraph, states: dict[int, ParameterVector], steps: int
) -> dict[int, ParameterVector]:
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for _ in range(steps):
        states = gossip_round(graph, states)
    return states


def node_mean(states: dict[int, ParameterVector]) -> ParameterVector:
    """Plain mean of node states, accumulated in ascending node id order."""
    if not states:
        raise ValueError("no states")
    return _weighted_mean(((n, s.values, 1) for n, s in states.items()), len(states))


# ---------------------------------------------------------------------------
# version ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Contributor:
    """One archived payload that went into a global version."""

    client_id: int
    payload_hash: str  # content hash of the payload bytes as aggregated
    n_samples: int
    update_kind: int  # wire kind of the carrying message
    base_version: str  # global version the client started from
    loss: float | None = None
    accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        _check_hash(self.payload_hash)


def _check_hash(value: str) -> None:
    if len(value) != 16 or any(c not in "0123456789abcdef" for c in value):
        raise ValueError(f"content hash must be 16 lowercase hex chars, got {value!r}")


@dataclass(frozen=True)
class GlobalVersionRecord:
    """Append-only ledger entry for one global model version."""

    version_id: str
    parent_version_id: str | None
    params_hash: str
    contributors: tuple[Contributor, ...]
    created_at_round: int
    aggregation_mode: str
    update_segment: str = SEGMENT_FULL
    detail: dict = field(default_factory=dict)  # mode specific replay inputs

    def __post_init__(self) -> None:
        if not self.version_id:
            raise ValueError("empty version_id")
        _check_hash(self.params_hash)
        if self.aggregation_mode not in AGGREGATION_MODES:
            raise ValueError(f"unknown aggregation_mode {self.aggregation_mode!r}")
        if self.update_segment not in (SEGMENT_FULL, SEGMENT_BODY):
            raise ValueError(f"unknown update_segment {self.update_segment!r}")
        contributors = tuple(self.contributors)
        object.__setattr__(self, "contributors", contributors)
        if self.parent_version_id is None:
            if contributors:
                raise ValueError("root version cannot have contributors")
        elif not contributors:
            raise ValueError("non-root version needs at least one contributor")
        if self.created_at_round < 0:
            raise ValueError("created_at_round must be >= 0")


def record_to_json(rec: GlobalVersionRecord) -> dict:
    return {
        "version_id": rec.version_id,
        "parent": rec.parent_version_id,
        "params_hash": rec.params_hash,
        "round": rec.created_at_round,
        "mode": rec.aggregation_mode,
        "segment": rec.update_segment,
        "contributors": [
            {
                "client_id": c.client_id,
                "payload_hash": c.payload_hash,
                "n_samples": c.n_samples,
                "update_kind": c.update_kind,
                "base_version": c.base_version,
                "loss": c.loss,
                "accuracy": c.accuracy,
            }
            for c in rec.contributors
        ],
        "detail": rec.detail,
    }


def record_from_json(obj: dict) -> GlobalVersionRecord:
    contributors = tuple(
        Contributor(
            client_id=c["client_id"],
            payload_hash=c["payload_hash"],
            n_samples=c["n_samples"],
            update_kind=c["update_kind"],
            base_version=c["base_version"],
            loss=c.get("loss"),
            accuracy=c.get("accuracy"),
        )
        for c in obj["contributors"]
    )
    return GlobalVersionRecord(
        version_id=obj["version_id"],
        parent_version_id=obj["parent"],
        params_hash=obj["params_hash"],
        contributors=contributors,
        created_at_round=obj["round"],
        aggregation_mode=obj["mode"],
        update_segment=obj.get("segment", SEGMENT_FULL),
        detail=dict(obj.get("detail") or {}),
    )


class VersionLedger:
    """Append-only map from global version ids to their provenance records."""

    def __init__(self) -> None:
        # dicts keep insertion order, which is the append order
        self._records: dict[str, GlobalVersionRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, version_id: str) -> bool:
        return version_id in self._records

    def record(self, rec: GlobalVersionRecord) -> None:
        if rec.version_id in self._records:
            raise IntegrityError(f"duplicate version {rec.version_id}")
        if rec.parent_version_id is None:
            if self._records:
                raise IntegrityError("ledger already has a root version")
        elif rec.parent_version_id not in self._records:
            raise IntegrityError(f"unknown parent {rec.parent_version_id}")
        self._records[rec.version_id] = rec

    def get(self, version_id: str) -> GlobalVersionRecord:
        try:
            return self._records[version_id]
        except KeyError:
            raise IntegrityError(f"unknown version {version_id}") from None

    def versions(self) -> tuple[str, ...]:
        """Version ids in append order."""
        return tuple(self._records)

    def write_jsonl(self, path: str | Path) -> None:
        write_jsonl(path, map(record_to_json, self._records.values()))

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "VersionLedger":
        """The ledger a run wrote. Raises IntegrityError naming the 1-based
        line, and the version id where it can be read, for a record that is
        not JSON or fails its checks."""
        ledger = cls()
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            if not line.strip():
                continue
            obj = None
            try:
                obj = json.loads(line)
                rec = record_from_json(obj)
            except (KeyError, TypeError, ValueError) as e:
                vid = obj.get("version_id") if isinstance(obj, dict) else None
                where = f"ledger line {lineno}" + (f" ({vid})" if vid is not None else "")
                raise IntegrityError(f"{where}: {type(e).__name__}: {e}") from None
            ledger.record(rec)
        return ledger
