"""Synthetic data generation, per-client preprocessing, and partitioning.

Each client draws its own samples from a shared Gaussian-blob generative
model; heterogeneity comes from per-client class weights (label skew) or
per-client sample counts (quantity skew). Everything is a pure function of
its spec and seeds, and each client's streams are independent, so
regenerating one client never disturbs another.

Shards are built in blocks: clients with one sample count, at most
BLOCK_BYTES of features together. Each client still draws from its own streams,
in the same order as alone; the label lookup, normalization and split then
run once per block on stacked arrays, so a block gives every client the
bytes it would get on its own. Blocks bound the temporaries of set-up.

Normalization is strictly local: a client z-scores with its own statistics
and never sees pooled moments.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.random import Generator

from .errors import ConfigError, UnresolvableClassError
from .models import Dataset
from .wire import id_streams

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
BLOCK_BYTES = 1 << 18  # feature bytes per shard-building block; bounds set-up's temporaries
# float64 feature bytes that quantity-skew sample counts may draw for the
# whole partition: past it, set-up could not hold the shards
PARTITION_BYTES = 1 << 30

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


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _check_weights(weights, num_classes: int) -> np.ndarray:
    """`weights` as float64, checked row by row when it is a stack of rows."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 0 or w.shape[-1] != num_classes:
        raise ValueError(f"class weights must have length {num_classes}")
    if np.any(w < 0):
        raise ValueError("class weights must be non-negative")
    if np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("class weights must sum to 1 within 1e-9")
    return w


def preprocess(feats: np.ndarray) -> np.ndarray:
    """z-score each column of each (n, d) matrix in a (..., n, d) stack
    with that matrix's own moments.

    Columns without variance pass through untouched. Raises ConfigError
    when a raw feature or a moment leaves float64, which only the data
    settings can cause.
    """
    if not np.isfinite(feats).all():
        raise ConfigError("data.noise_sigma, data.class_mean_scale: raw features leave float64")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = feats.mean(axis=-2, keepdims=True)
        std = feats.std(axis=-2, keepdims=True)  # population form: matches the unit-variance check
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ConfigError("data.noise_sigma, data.class_mean_scale: feature moments leave float64")
    constant = std <= _CONSTANT_STD
    scaled = (feats - mean) / np.where(constant, 1.0, std)
    np.copyto(scaled, feats, where=constant)
    return scaled


def client_streams(seed: int, ids) -> Iterator[tuple[int, Generator, Generator]]:
    """(cid, collect rng, split rng) for each id in order: the streams of
    np.random.default_rng([seed, cid, salt]) for the collect and split salts."""
    collect = id_streams([seed, ids, _SALT_COLLECT])
    split = id_streams([seed, ids, _SALT_SPLIT])
    return ((cid, c, s) for (cid, c), (_, s) in zip(collect, split))


def _test_size(n: int) -> int:
    """The test share of an n-sample shard; a single sample stays in train."""
    n_test = int(round(n * TEST_FRACTION))
    if n >= 2 and n_test == 0:
        n_test = 1
    return min(n_test, n - 1)


def build_block(ss: SyntheticSpec, ids, weights, n_samples: int, streams) -> list[ClientShard]:
    """The shards of clients `ids`, which all hold n_samples samples.

    `streams` yields each client's generators, as client_streams(ss.seed,
    ids) does; the next len(ids) are taken. Each client draws its labels'
    uniforms and then its noise from its collect stream, and its 80/20
    split order from its split stream; everything else runs once for the
    block. Shards hold read-only views into the block's train and test
    arrays.
    """
    w = _check_weights(weights, ss.num_classes)
    n = int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    size, k = len(ids), ss.num_classes
    u = np.empty((size, n))
    feats = np.empty((size, n, ss.input_dim))
    orders = np.empty((size, n), dtype=np.int64)
    for i, (_, collect, split) in zip(range(size), streams):
        collect.random(out=u[i])
        feats[i] = collect.normal(0.0, ss.noise_sigma, size=(n, ss.input_dim))
        orders[i] = split.permutation(n)
    cum = np.cumsum(w, axis=-1)
    cum[:, -1] = 1.0  # guard the rounding tail
    labels = (cum[:, None, :] <= u[:, :, None]).sum(axis=-1)  # searchsorted, side="right"
    with np.errstate(over="ignore", invalid="ignore"):  # preprocess names a sum past float64
        feats += ss.class_means[labels]  # float addition commutes: the bits of means + noise
    scaled = preprocess(feats)
    n_test = _test_size(n)
    rows = np.arange(size)[:, None]
    train_idx = np.sort(orders[:, n_test:], axis=-1)
    test_idx = np.sort(orders[:, :n_test], axis=-1)
    train_x, train_y = scaled[rows, train_idx], labels[rows, train_idx]
    test_x, test_y = scaled[rows, test_idx], labels[rows, test_idx]
    return [
        ClientShard(
            int(cid),
            Dataset._derived(train_x[i], train_y[i], k),
            Dataset._derived(test_x[i], test_y[i], k),
        )
        for i, cid in enumerate(ids)
    ]


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def client_class_weights(ps: PartitionSpec, ss: SyntheticSpec, n_clients: int) -> np.ndarray:
    """Per-client class weight rows for the chosen heterogeneity mode."""
    k = ss.num_classes
    if ps.mode == MODE_DIRICHLET:
        rng = np.random.default_rng([ps.seed, _SALT_WEIGHTS])
        weights = rng.dirichlet(np.full(k, ps.alpha), size=n_clients)
        # near float64's top, numpy's draw returns rows of zeros
        if not np.all(np.abs(weights.sum(axis=-1) - 1.0) <= 1e-9):
            raise ConfigError(
                "data.partition.alpha: too large for the Dirichlet draw, "
                "whose class weights do not sum to 1"
            )
        return weights
    return np.full((n_clients, k), 1.0 / k)


def client_sample_counts(ps: PartitionSpec, ss: SyntheticSpec, n_clients: int) -> np.ndarray:
    if ps.mode == MODE_QUANTITY:
        rng = np.random.default_rng([ps.seed, _SALT_COUNTS])
        factors = rng.lognormal(0.0, ps.sigma, size=n_clients)
        with np.errstate(over="ignore", invalid="ignore"):
            counts = np.rint(ss.samples_per_client * factors)
        if not np.all(counts < 2.0**63):  # also false for inf and nan
            raise ConfigError(
                "data.partition.sigma, data.samples_per_client: "
                "a client's sample count leaves int64"
            )
        counts = np.maximum(MIN_SHARD_SAMPLES, counts)
        feature_bytes = 8.0 * ss.input_dim * float(counts.sum())
        if feature_bytes > PARTITION_BYTES:
            raise ConfigError(
                f"data.partition.sigma: the drawn sample counts need {feature_bytes / 2**30:.3g} "
                f"GiB of features, past the partition budget of {PARTITION_BYTES / 2**30:g} GiB"
            )
        return counts.astype(np.int64)
    return np.full(n_clients, ss.samples_per_client, dtype=np.int64)


def partition(ps: PartitionSpec, ss: SyntheticSpec, n_clients: int) -> list[ClientShard]:
    """Every client's shard, built in blocks of clients with one sample count."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    weights = client_class_weights(ps, ss, n_clients)
    counts = client_sample_counts(ps, ss, n_clients)
    order = np.argsort(counts, kind="stable")  # by count, ascending ids within one
    streams = client_streams(ss.seed, order)
    shards: list[ClientShard] = [None] * n_clients
    start = 0
    while start < n_clients:
        n = int(counts[order[start]])
        ids = order[start : start + max(1, BLOCK_BYTES // (8 * n * ss.input_dim))]
        ids = ids[counts[ids] == n]  # the equal counts lead the sorted slice
        for shard in build_block(ss, ids, weights[ids], n, streams):
            shards[shard.client_id] = shard
        start += len(ids)
    return shards


def make_holdout(ss: SyntheticSpec, n_samples: int, seed: int) -> Dataset:
    """Balanced evaluation pool, normalized the same way clients normalize."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng([ss.seed, seed, _SALT_HOLDOUT])
    labels = np.searchsorted(
        np.arange(1, ss.num_classes + 1) / ss.num_classes, rng.random(n_samples), side="right"
    ).astype(np.int64)
    noise = rng.normal(0.0, ss.noise_sigma, size=(n_samples, ss.input_dim))
    with np.errstate(over="ignore", invalid="ignore"):  # preprocess names a sum past float64
        feats = ss.class_means[labels] + noise
    return Dataset._derived(preprocess(feats), labels, ss.num_classes)


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------


def label_distribution(shard: ClientShard) -> np.ndarray:
    """The share of each class among the shard's training labels."""
    train = shard.train
    if len(train) == 0:
        raise ValueError("empty shard has no label distribution")
    return np.bincount(train.labels, minlength=train.num_classes) / len(train)


def _tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def augment_balance(
    shard: ClientShard,
    target,
    noise_sigma: float,
    seed: int = 0,
) -> ClientShard:
    """Oversample under-represented classes toward `target`; None targets
    the uniform distribution over the classes the shard holds.

    Duplicates seeded random members of a deficit class with small Gaussian
    jitter until the train label distribution is within TV distance 0.05 of
    the target, or every deficit class has grown to 10x its original count.
    Original samples are always retained.
    """
    k = shard.train.num_classes
    orig_counts = np.bincount(shard.train.labels, minlength=k)
    if target is None:
        held = orig_counts > 0
        target = held / np.count_nonzero(held)
    target_w = _check_weights(target, k)
    for c in range(k):
        if target_w[c] > 0 and orig_counts[c] == 0:
            raise UnresolvableClassError(
                f"data.augment_target: places weight on class {c}, "
                f"which client {shard.client_id} has no samples of"
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
    return replace(shard, train=train)

