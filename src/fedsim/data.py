"""Synthetic data generation, per-client preprocessing, and partitioning.

Each client draws its own samples from a shared Gaussian-blob generative
model; heterogeneity comes from per-client class weights (label skew) or
per-client sample counts (quantity skew). Everything is a pure function of
its spec and seeds, and each client's stream is independent, so regenerating
one client never disturbs another.

Normalization is strictly local: a client z-scores with its own statistics
and never sees pooled moments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, UnresolvableClassError
from .models import Dataset

MODE_IID = "iid"
MODE_DIRICHLET = "dirichlet_label_skew"
MODE_QUANTITY = "quantity_skew"
PARTITION_MODES = (MODE_IID, MODE_DIRICHLET, MODE_QUANTITY)

MIN_SHARD_SAMPLES = 10
TEST_FRACTION = 0.2
AUGMENT_TV_TOLERANCE = 0.05
AUGMENT_CAP_FACTOR = 10
AUGMENT_JITTER_FACTOR = 0.1
_CONSTANT_STD = 1e-12

# stream salts keep the independent RNG purposes apart
_SALT_MEANS = 101
_SALT_COLLECT = 102
_SALT_WEIGHTS = 103
_SALT_COUNTS = 104
_SALT_SPLIT = 105
_SALT_AUGMENT = 106
_SALT_HOLDOUT = 107


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int
    input_dim: int
    class_mean_scale: float
    noise_sigma: float
    samples_per_client: int
    seed: int

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.samples_per_client < 1:
            raise ValueError("samples_per_client must be >= 1")

    @cached_property
    def class_means(self) -> np.ndarray:
        """Per-class blob centres, drawn once per spec and read-only."""
        rng = np.random.default_rng([self.seed, _SALT_MEANS])
        means = rng.normal(0.0, self.class_mean_scale, size=(self.num_classes, self.input_dim))
        means.setflags(write=False)
        return means


@dataclass(frozen=True)
class PartitionSpec:
    mode: str
    alpha: float = 1.0
    sigma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True, eq=False)
class ClientShard:
    client_id: int
    train: Dataset
    test: Dataset
    label_histogram: tuple[int, ...]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _check_weights(weights, num_classes: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (num_classes,):
        raise ValueError(f"class weights must have length {num_classes}")
    if np.any(w < 0):
        raise ValueError("class weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError("class weights must sum to 1 within 1e-9")
    return w


def collect(
    spec: SyntheticSpec,
    client_id: int,
    class_weights,
    n_samples: int | None = None,
) -> Dataset:
    """Draw one client's raw samples. Deterministic in (spec.seed, client_id)."""
    w = _check_weights(class_weights, spec.num_classes)
    n = spec.samples_per_client if n_samples is None else int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng([spec.seed, client_id, _SALT_COLLECT])
    cum = np.cumsum(w)
    cum[-1] = 1.0  # guard the rounding tail
    labels = np.searchsorted(cum, rng.random(n), side="right").astype(np.int64)
    feats = spec.class_means[labels] + rng.normal(0.0, spec.noise_sigma, size=(n, spec.input_dim))
    return Dataset(feats, labels, spec.num_classes)


def preprocess(raw: Dataset) -> Dataset:
    """z-score each column with the client's own moments.

    Columns without variance pass through untouched. The labels are raw's,
    so only the finiteness of the scaled features is checked again. Raises
    ConfigError when a moment leaves float64, which only the data settings
    can cause.
    """
    feats = raw.features
    if len(raw) == 0:
        return raw
    with np.errstate(over="ignore", invalid="ignore"):
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)  # population form: matches the unit-variance check
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ConfigError("data.noise_sigma, data.class_mean_scale: feature moments leave float64")
    constant = std <= _CONSTANT_STD
    safe_std = np.where(constant, 1.0, std)
    scaled = (feats - mean) / safe_std
    scaled[:, constant] = feats[:, constant]
    if not np.isfinite(scaled).all():
        raise ValueError("features contain non-finite entries")
    return Dataset._derived(scaled, raw.labels, raw.num_classes)


def split_train_test(data: Dataset, seed: int, client_id: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded 80/20 split; a single-sample set keeps its sample in train.

    Both halves are row subsets of `data`, so neither is validated again.
    """
    n = len(data)
    if n == 0:
        return data, data
    n_test = int(round(n * TEST_FRACTION))
    if n >= 2 and n_test == 0:
        n_test = 1
    if n_test >= n:
        n_test = n - 1
    rng = np.random.default_rng([seed, client_id, _SALT_SPLIT])
    order = rng.permutation(n)
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])
    return (
        Dataset._derived(data.features[train_idx], data.labels[train_idx], data.num_classes),
        Dataset._derived(data.features[test_idx], data.labels[test_idx], data.num_classes),
    )


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def client_class_weights(ps: PartitionSpec, ss: SyntheticSpec, n_clients: int) -> np.ndarray:
    """Per-client class weight rows for the chosen heterogeneity mode."""
    k = ss.num_classes
    if ps.mode == MODE_DIRICHLET:
        rng = np.random.default_rng([ps.seed, _SALT_WEIGHTS])
        return rng.dirichlet(np.full(k, ps.alpha), size=n_clients)
    return np.full((n_clients, k), 1.0 / k)


def client_sample_counts(ps: PartitionSpec, ss: SyntheticSpec, n_clients: int) -> np.ndarray:
    if ps.mode == MODE_QUANTITY:
        rng = np.random.default_rng([ps.seed, _SALT_COUNTS])
        factors = rng.lognormal(0.0, ps.sigma, size=n_clients)
        counts = np.maximum(
            MIN_SHARD_SAMPLES, np.rint(ss.samples_per_client * factors).astype(np.int64)
        )
        return counts
    return np.full(n_clients, ss.samples_per_client, dtype=np.int64)


def build_shard(ss: SyntheticSpec, client_id: int, weights, n_samples: int) -> ClientShard:
    raw = collect(ss, client_id, weights, n_samples=n_samples)
    train, test = split_train_test(preprocess(raw), ss.seed, client_id)
    hist = np.bincount(train.labels, minlength=ss.num_classes)
    return ClientShard(client_id, train, test, tuple(int(c) for c in hist))


def partition(ps: PartitionSpec, ss: SyntheticSpec, n_clients: int) -> list[ClientShard]:
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    weights = client_class_weights(ps, ss, n_clients)
    counts = client_sample_counts(ps, ss, n_clients)
    return [
        build_shard(ss, cid, weights[cid], int(counts[cid])) for cid in range(n_clients)
    ]


def make_holdout(ss: SyntheticSpec, n_samples: int, seed: int) -> Dataset:
    """Balanced evaluation pool, normalized the same way clients normalize."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng([ss.seed, seed, _SALT_HOLDOUT])
    labels = np.searchsorted(
        np.arange(1, ss.num_classes + 1) / ss.num_classes, rng.random(n_samples), side="right"
    ).astype(np.int64)
    noise = rng.normal(0.0, ss.noise_sigma, size=(n_samples, ss.input_dim))
    feats = ss.class_means[labels] + noise
    return preprocess(Dataset(feats, labels, ss.num_classes))


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------


def label_distribution(shard: ClientShard) -> np.ndarray:
    total = sum(shard.label_histogram)
    if total == 0:
        raise ValueError("empty shard has no label distribution")
    return np.asarray(shard.label_histogram, dtype=np.float64) / total


def _tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def augment_balance(
    shard: ClientShard,
    target,
    noise_sigma: float,
    seed: int = 0,
) -> ClientShard:
    """Oversample under-represented classes toward `target`.

    Duplicates seeded random members of a deficit class with small Gaussian
    jitter until the train label distribution is within TV distance 0.05 of
    the target, or every deficit class has grown to 10x its original count.
    Original samples are always retained.
    """
    k = shard.train.num_classes
    target_w = _check_weights(target, k)
    orig_counts = np.bincount(shard.train.labels, minlength=k)
    for c in range(k):
        if target_w[c] > 0 and orig_counts[c] == 0:
            raise UnresolvableClassError(
                f"target places weight on class {c} but the shard has no samples of it"
            )

    counts = orig_counts.astype(np.int64).copy()
    if _tv_distance(counts / counts.sum(), target_w) <= AUGMENT_TV_TOLERANCE:
        return shard

    rng = np.random.default_rng([seed, shard.client_id, _SALT_AUGMENT])
    members = {c: np.flatnonzero(shard.train.labels == c) for c in range(k)}
    new_feats = [shard.train.features]
    new_labels = [shard.train.labels]
    jitter_sigma = AUGMENT_JITTER_FACTOR * noise_sigma

    while True:
        dist = counts / counts.sum()
        if _tv_distance(dist, target_w) <= AUGMENT_TV_TOLERANCE:
            break
        deficit = target_w - dist
        allowed = [
            c
            for c in range(k)
            if deficit[c] > 0
            and orig_counts[c] > 0
            and counts[c] < AUGMENT_CAP_FACTOR * orig_counts[c]
        ]
        if not allowed:
            break
        c = max(allowed, key=lambda cc: (deficit[cc], -cc))
        pick = members[c][rng.integers(0, len(members[c]))]
        base = shard.train.features[pick]
        jitter = rng.normal(0.0, jitter_sigma, size=base.shape[0])
        new_feats.append((base + jitter)[None, :])
        new_labels.append(np.array([c], dtype=np.int64))
        counts[c] += 1

    train = Dataset(np.concatenate(new_feats), np.concatenate(new_labels), k)
    hist = np.bincount(train.labels, minlength=k)
    return replace(
        shard, train=train, label_histogram=tuple(int(c) for c in hist)
    )

