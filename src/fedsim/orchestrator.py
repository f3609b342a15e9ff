"""Server-side control plane: membership registry, round selection, clustering.

The round state machine that drives these pieces lives in runner; this
module keeps the data structures and the pure decision logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import ROOT_VERSION
from .client import ModelPackage
from .errors import ConflictError, SelectionStarvationError
from .models import ArchDescriptor, EvalReport, Hyperparameters, init_params
from .wire import write_jsonl

SELECT_SALT = 401
CLUSTER_SALT = 402

STATUS_ACTIVE = "active"
STATUS_DROPPED = "dropped"

STRATEGY_UNIFORM = "uniform_random"
STRATEGY_TOP_RESOURCE = "top_resource"
STRATEGY_TOP_ACCURACY = "top_accuracy"
SELECTION_STRATEGIES = (STRATEGY_UNIFORM, STRATEGY_TOP_RESOURCE, STRATEGY_TOP_ACCURACY)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass
class ClientRecord:
    """Everything the server tracks about one client."""

    client_id: int
    resource_score: float
    n_samples: int
    registered_at: float
    rounds_participated: int = 0
    last_local_eval: EvalReport | None = None
    status: str = STATUS_ACTIVE

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")
        if not 0.0 <= self.resource_score <= 1.0:
            raise ValueError("resource_score must lie in [0, 1]")
        if self.n_samples < 0:
            raise ValueError("n_samples must be >= 0")


def record_to_json(rec: ClientRecord) -> dict:
    evaluation = None
    if rec.last_local_eval is not None:
        e = rec.last_local_eval
        evaluation = {
            "loss": e.loss,
            "accuracy": e.accuracy,
            "n_samples": e.n_samples,
            "per_class_counts": list(e.per_class_counts),
            "degenerate": e.degenerate,
        }
    return {
        "client_id": rec.client_id,
        "resource_score": rec.resource_score,
        "n_samples": rec.n_samples,
        "registered_at": rec.registered_at,
        "rounds_participated": rec.rounds_participated,
        "last_local_eval": evaluation,
        "status": rec.status,
    }


class ClientRegistry:
    """Single source of membership truth on the server."""

    def __init__(self) -> None:
        self._records: dict[int, ClientRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._records

    def get(self, client_id: int) -> ClientRecord:
        return self._records[client_id]

    def records(self) -> list[ClientRecord]:
        """All records in ascending client id order."""
        return [self._records[cid] for cid in sorted(self._records)]

    def active_ids(self) -> list[int]:
        return [r.client_id for r in self.records() if r.status == STATUS_ACTIVE]

    def register(
        self, client_id: int, resource_score: float, n_samples: int, t: float
    ) -> ClientRecord:
        """Add a client the registry has not seen. A dropped client comes
        back through reactivate, which keeps its participation count."""
        if client_id in self._records:
            raise ConflictError(f"client {client_id} is already registered")
        record = ClientRecord(client_id, resource_score, n_samples, t)
        self._records[client_id] = record
        return record

    def mark_dropped(self, client_id: int) -> None:
        self._records[client_id].status = STATUS_DROPPED

    def reactivate(self, client_id: int) -> None:
        self._records[client_id].status = STATUS_ACTIVE

    def record_participation(self, client_id: int, report: EvalReport | None) -> None:
        record = self._records[client_id]
        record.rounds_participated += 1
        if report is not None:
            record.last_local_eval = report

    def write_jsonl(self, path: str | Path) -> None:
        write_jsonl(path, (record_to_json(r) for r in self.records()))


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionCriteria:
    """Eligibility filters plus the pick strategy applied to survivors."""

    min_resource: float = 0.0
    min_samples: int = 0
    strategy: str = STRATEGY_UNIFORM

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_resource <= 1.0:
            raise ValueError("min_resource must lie in [0, 1]")
        if self.min_samples < 0:
            raise ValueError("min_samples must be >= 0")
        if self.strategy not in SELECTION_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


def select_clients(
    registry: ClientRegistry,
    criteria: SelectionCriteria,
    fraction: float,
    round_index: int,
    seed: int,
) -> tuple[int, ...]:
    """Pick this round's participants from the eligible active clients.

    Filters first, then the strategy decides: uniform sampling without
    replacement, or a descending sort on resource or last accuracy with
    client id breaking ties.  Returns at least one id, in ascending order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    eligible = [
        r
        for r in registry.records()
        if r.status == STATUS_ACTIVE
        and r.resource_score >= criteria.min_resource
        and r.n_samples >= criteria.min_samples
    ]
    if not eligible:
        raise SelectionStarvationError(
            f"round {round_index}: no active client passes the selection filters"
        )
    count = math.ceil(fraction * len(eligible))
    if criteria.strategy == STRATEGY_UNIFORM:
        rng = np.random.default_rng([seed, SELECT_SALT, round_index])
        ids = np.array([r.client_id for r in eligible])
        chosen = rng.choice(ids, size=count, replace=False)
        selected = sorted(int(c) for c in chosen)
    elif criteria.strategy == STRATEGY_TOP_RESOURCE:
        ranked = sorted(eligible, key=lambda r: (-r.resource_score, r.client_id))
        selected = sorted(r.client_id for r in ranked[:count])
    else:
        # clients never evaluated rank below any evaluated one
        def accuracy(r: ClientRecord) -> float:
            return r.last_local_eval.accuracy if r.last_local_eval is not None else -1.0

        ranked = sorted(eligible, key=lambda r: (-accuracy(r), r.client_id))
        selected = sorted(r.client_id for r in ranked[:count])
    return tuple(selected)


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterAssignment:
    k: int
    assignment: dict[int, int]
    centroids: np.ndarray  # k rows, unit norm (or zero for degenerate data)
    inertia: float


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms > 1e-12, norms, 1.0)
    return x / safe


def _cosine_distances(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # rows and centroids are unit vectors, so the dot product is the cosine
    return 1.0 - rows @ centroids.T


def _plus_plus_init(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = rows.shape[0]
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        d = _cosine_distances(rows, rows[chosen]).min(axis=1)
        d = np.clip(d, 0.0, None)
        weights = d * d
        total = weights.sum()
        if total <= 0.0:
            # all points already coincide with a centroid; any unused row works
            remaining = [i for i in range(n) if i not in chosen]
            chosen.append(remaining[0] if remaining else chosen[0])
            continue
        chosen.append(int(rng.choice(n, p=weights / total)))
    return rows[chosen].copy()


def cluster_clients(
    vectors: dict[int, np.ndarray], k: int, seed: int
) -> ClusterAssignment:
    """Group clients by the direction of their feature vectors.

    Mean-centered cosine k-means: seeded k-means++ start, at most 100 update
    rounds or until centroids move less than 1e-6.  A cluster that empties is
    restarted from the point farthest from its current centroid.  Ties in the
    nearest-centroid choice go to the lowest cluster index.  Raises
    FloatingPointError when the centred vectors or their norms overflow.
    """
    if not vectors:
        raise ValueError("no vectors to cluster")
    ids = sorted(vectors)
    raw = np.stack([np.asarray(vectors[cid], dtype=np.float64) for cid in ids])
    if raw.ndim != 2:
        raise ValueError("vectors must be 1-D and of equal length")
    if not (1 <= k <= len(ids)):
        raise ValueError(f"k must lie in [1, {len(ids)}]")
    with np.errstate(over="raise", invalid="raise"):
        rows = _normalize_rows(raw - raw.mean(axis=0))
    rng = np.random.default_rng([seed, CLUSTER_SALT])
    centroids = _plus_plus_init(rows, k, rng)
    labels = np.zeros(len(ids), dtype=np.int64)
    for _ in range(100):
        distances = _cosine_distances(rows, centroids)
        labels = distances.argmin(axis=1)
        updated = centroids.copy()
        for c in range(k):
            members = rows[labels == c]
            if len(members) == 0:
                per_point = distances[np.arange(len(ids)), labels]
                updated[c] = rows[int(per_point.argmax())]
                continue
            updated[c] = _normalize_rows(members.mean(axis=0)[None, :])[0]
        shift = float(np.max(np.linalg.norm(updated - centroids, axis=1)))
        centroids = updated
        if shift < 1e-6:
            break
    distances = _cosine_distances(rows, centroids)
    labels = distances.argmin(axis=1)
    inertia = 0.0
    for i in range(len(ids)):
        inertia += float(distances[i, labels[i]])
    assignment = {cid: int(labels[i]) for i, cid in enumerate(ids)}
    return ClusterAssignment(k, assignment, centroids, inertia)


# ---------------------------------------------------------------------------
# job creation
# ---------------------------------------------------------------------------


def create_job(arch: ArchDescriptor, hp: Hyperparameters, init_mode: str) -> ModelPackage:
    """Mint the initial broadcastable model for a training job.

    The package carries hyperparameters alongside the parameters so a
    client needs nothing else to start training.
    """
    params = init_params(arch, init_mode, seed=hp.seed)
    return ModelPackage(ROOT_VERSION, params, arch, hp)
