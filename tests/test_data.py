import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from fedsim import data
from fedsim.data import (
    BLOCK_BYTES,
    ClientShard,
    PartitionSpec,
    SyntheticSpec,
    augment_balance,
    build_block,
    client_class_weights,
    client_sample_counts,
    client_streams,
    label_distribution,
    make_holdout,
    partition,
    preprocess,
)
from fedsim.errors import ConfigError, UnresolvableClassError
from fedsim.models import Dataset

SS = SyntheticSpec(
    num_classes=3, input_dim=4, class_mean_scale=2.0, noise_sigma=0.5,
    samples_per_client=120, seed=7,
)


def _one(ss, cid, weights, n_samples=None):
    """The shard of client `cid` alone, from a block of one."""
    n = ss.samples_per_client if n_samples is None else n_samples
    (shard,) = build_block(ss, [cid], [weights], n, client_streams(ss.seed, [cid]))
    return shard


def _labels(shard):
    return np.concatenate([shard.train.labels, shard.test.labels])


def _train_counts(shard):
    """The shard's train label counts, counted directly; label_distribution
    must give exactly these over the train size."""
    counts = np.bincount(shard.train.labels, minlength=shard.train.num_classes)
    assert np.array_equal(label_distribution(shard), counts / len(shard.train))
    return counts


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------


def test_collect_degenerate_weights_single_class():
    ss = SyntheticSpec(2, 3, 1.0, 0.5, 50, seed=1)
    assert np.all(_labels(_one(ss, 0, [1.0, 0.0])) == 0)


def test_collect_uniform_frequencies_within_binomial_bound():
    n = 10_000
    labels = _labels(_one(SS, 0, [1 / 3] * 3, n_samples=n))
    p = 1 / 3
    bound = 3 * np.sqrt(p * (1 - p) / n)
    freqs = np.bincount(labels, minlength=3) / n
    assert np.all(np.abs(freqs - p) <= bound)


def test_collect_deterministic_and_client_independent():
    a = _one(SS, 3, [1 / 3] * 3)
    b = _one(SS, 3, [1 / 3] * 3)
    c = _one(SS, 4, [1 / 3] * 3)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.train.labels, b.train.labels)
    assert not np.array_equal(a.train.features, c.train.features)


def test_collect_rejects_bad_weights():
    with pytest.raises(ValueError, match="non-negative"):
        _one(SS, 0, [1.2, -0.2, 0.0])
    with pytest.raises(ValueError, match="sum to 1"):
        _one(SS, 0, [0.5, 0.1, 0.1])
    with pytest.raises(ValueError, match="length"):
        _one(SS, 0, [0.5, 0.5])
    # one bad row fails the whole block
    rows = [[1 / 3] * 3, [0.5, 0.1, 0.1]]
    with pytest.raises(ValueError, match="sum to 1"):
        build_block(SS, [0, 1], rows, 12, client_streams(SS.seed, [0, 1]))


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def test_preprocess_zscores_and_flags_constant_columns():
    rng = np.random.default_rng(2)
    feats = rng.normal(5.0, 3.0, size=(200, 3))
    feats[:, 1] = 42.0  # constant column
    scaled = preprocess(feats)
    # constant column passes through untouched
    assert np.array_equal(scaled[:, 1], feats[:, 1])
    for j in (0, 2):
        assert abs(scaled[:, j].mean()) <= 1e-9
        assert abs(scaled[:, j].var() - 1.0) <= 1e-9
    # a stack z-scores each matrix with its own moments
    stack = np.stack([feats, 2.0 * feats + 1.0])
    assert np.array_equal(preprocess(stack)[0], scaled)
    assert np.array_equal(preprocess(stack)[1], preprocess(stack[1]))


def test_preprocess_idempotent_within_tolerance():
    rng = np.random.default_rng(3)
    once = preprocess(rng.normal(2.0, 4.0, size=(150, 4)))
    twice = preprocess(once)
    assert np.max(np.abs(twice - once)) <= 1e-9


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_iid_partition_histograms_match_uniform():
    shards = partition(PartitionSpec("iid", seed=5), SS, 10)
    k = SS.num_classes
    stat = 0.0
    df = 0
    for shard in shards:
        counts = _train_counts(shard)
        expected = counts.sum() / k
        stat += sum((c - expected) ** 2 / expected for c in counts)
        df += k - 1
    assert stat < scipy_stats.chi2.ppf(0.999, df)


def test_dirichlet_huge_alpha_is_nearly_uniform():
    ps = PartitionSpec("dirichlet_label_skew", alpha=1e6, seed=5)
    weights = client_class_weights(ps, SS, 10)
    assert np.all(weights.max(axis=1) <= 1 / SS.num_classes + 0.05)


def test_dirichlet_alpha_past_the_draw_is_a_named_config_error():
    # numpy's Dirichlet draw returns rows of zeros near float64's top
    ps = PartitionSpec("dirichlet_label_skew", alpha=1.7e308, seed=0)
    with pytest.raises(ConfigError, match=r"^data\.partition\.alpha: "):
        client_class_weights(ps, SS, 4)
    ps = PartitionSpec("dirichlet_label_skew", alpha=1e300, seed=0)
    weights = client_class_weights(ps, SS, 4)
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-9)


def test_dirichlet_small_alpha_concentrates():
    maxima = []
    for seed in range(5):
        ps = PartitionSpec("dirichlet_label_skew", alpha=0.1, seed=seed)
        shards = partition(ps, SS, 10)
        for shard in shards:
            dist = label_distribution(shard)
            maxima.append(dist.max())
    assert np.mean(maxima) >= 0.6


def test_quantity_skew_counts_vary_and_respect_minimum():
    ss = SyntheticSpec(2, 3, 2.0, 0.5, 12, seed=9)
    ps = PartitionSpec("quantity_skew", sigma=1.0, seed=4)
    counts = client_sample_counts(ps, ss, 30)
    assert counts.min() >= 10
    assert len(set(counts.tolist())) > 1
    shards = partition(ps, ss, 6)
    for shard, count in zip(shards, counts[:6]):
        assert len(shard.train) + len(shard.test) == count


def test_quantity_skew_counts_past_int64_are_a_named_config_error():
    # lognormal factors of sigma 1000 reach inf; a cast would make them int64's minimum
    ps = PartitionSpec("quantity_skew", sigma=1000.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"data\.partition\.sigma, data\.samples_per_client"):
            client_sample_counts(ps, SS, 4)


def test_quantity_skew_counts_past_the_partition_budget_are_a_named_config_error():
    # sigma 20 draws counts that fit int64 whose features would take terabytes
    ps = PartitionSpec("quantity_skew", sigma=20.0, seed=0)
    budget = r"^data\.partition\.sigma: .* past the partition budget of 1 GiB"
    with pytest.raises(ConfigError, match=budget):
        client_sample_counts(ps, SS, 4)


def test_partition_budget_bounds_the_features_of_every_shard(monkeypatch):
    ps = PartitionSpec("quantity_skew", sigma=1.0, seed=0)
    counts = client_sample_counts(ps, SS, 4)
    need = 8 * SS.input_dim * int(counts.sum())
    monkeypatch.setattr(data, "PARTITION_BYTES", need)
    assert np.array_equal(client_sample_counts(ps, SS, 4), counts)
    monkeypatch.setattr(data, "PARTITION_BYTES", need - 1)
    with pytest.raises(ConfigError, match=r"data\.partition\.sigma"):
        client_sample_counts(ps, SS, 4)


def test_shard_regeneration_is_client_local():
    ps = PartitionSpec("dirichlet_label_skew", alpha=0.5, seed=11)
    shards = partition(ps, SS, 5)
    weights = client_class_weights(ps, SS, 5)
    counts = client_sample_counts(ps, SS, 5)
    # rebuilding client 2 alone reproduces its shard bit for bit
    alone = _one(SS, 2, weights[2], int(counts[2]))
    assert np.array_equal(alone.train.features, shards[2].train.features)
    assert np.array_equal(alone.test.features, shards[2].test.features)
    assert np.array_equal(_train_counts(alone), _train_counts(shards[2]))


def _reference_shard(ss, client_id, weights, n_samples):
    """One client's shard drawn from its own default_rng streams, with every
    intermediate set built as a validated Dataset."""
    rng = np.random.default_rng([ss.seed, client_id, 102])
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    labels = np.searchsorted(cum, rng.random(n_samples), side="right")
    noise = rng.normal(0.0, ss.noise_sigma, size=(n_samples, ss.input_dim))
    raw = Dataset(ss.class_means[labels] + noise, labels, ss.num_classes)
    feats = raw.features
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    constant = std <= 1e-12
    scaled = (feats - mean) / np.where(constant, 1.0, std)
    scaled[:, constant] = feats[:, constant]
    data = Dataset(scaled, raw.labels, raw.num_classes)
    n = len(data)
    n_test = int(round(n * 0.2))
    if n >= 2 and n_test == 0:
        n_test = 1
    if n_test >= n:
        n_test = n - 1
    order = np.random.default_rng([ss.seed, client_id, 105]).permutation(n)
    test_idx, train_idx = np.sort(order[:n_test]), np.sort(order[n_test:])
    train = Dataset(data.features[train_idx], data.labels[train_idx], data.num_classes)
    test = Dataset(data.features[test_idx], data.labels[test_idx], data.num_classes)
    return train, test


# (class_mean_scale, noise_sigma, samples_per_client, n_clients): one block;
# blocks of BLOCK_BYTES // (8 * 300 * 4) clients and a remainder; every column constant
REFERENCE_CASES = [
    (2.0, 0.5, 12, 40),
    (2.0, 0.5, 300, 2 * (BLOCK_BYTES // (8 * 300 * 4)) + 1),
    (0.0, 0.0, 12, 7),
]


@pytest.mark.parametrize(
    "ps",
    [
        PartitionSpec("iid", seed=3),
        PartitionSpec("dirichlet_label_skew", alpha=0.3, seed=3),
        PartitionSpec("quantity_skew", sigma=0.8, seed=3),
    ],
    ids=lambda ps: ps.mode,
)
def test_partition_equals_validated_reference(ps):
    for seed in (9, 0, 2**32 - 1, 2**32, 2**64 - 1):
        for scale, sigma, per_client, n_clients in REFERENCE_CASES:
            ss = SyntheticSpec(3, 4, scale, sigma, samples_per_client=per_client, seed=seed)
            shards = partition(ps, ss, n_clients)
            weights = client_class_weights(ps, ss, n_clients)
            counts = client_sample_counts(ps, ss, n_clients)
            assert [s.client_id for s in shards] == list(range(n_clients))
            for cid, shard in enumerate(shards):
                train, test = _reference_shard(ss, cid, weights[cid], int(counts[cid]))
                hist = np.bincount(train.labels, minlength=3)
                assert np.array_equal(_train_counts(shard), hist)
                for got, want in ((shard.train, train), (shard.test, test)):
                    assert got.features.dtype == np.float64 and got.labels.dtype == np.int64
                    assert np.array_equal(got.features, want.features)
                    assert np.array_equal(got.labels, want.labels)
                    assert got.num_classes == want.num_classes
                    assert not got.features.flags.writeable and not got.labels.flags.writeable


def test_partition_memory_is_bounded_by_blocks():
    # 2000 clients of 40 samples in one block would hold ~45 MiB of temporaries
    ss = SyntheticSpec(10, 32, 1.0, 2.0, 40, seed=1)
    ps = PartitionSpec("dirichlet_label_skew", alpha=0.5, seed=1)
    ss.class_means  # cached on the spec; not a partition temporary
    tracemalloc.start()
    try:
        shards = partition(ps, ss, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(
        a.nbytes for s in shards for ds in (s.train, s.test) for a in (ds.features, ds.labels)
    )
    assert peak - held <= 8 * 2**20


def test_partition_memory_at_wide_inputs_is_bounded_by_block_bytes():
    # a client holds 0.8 MiB of features at input_dim 10000; eight clients
    # in one block, as a cap on samples built them, held ~14 MiB of temporaries
    ss = SyntheticSpec(10, 10000, 1.0, 2.0, 10, seed=1)
    ps = PartitionSpec("dirichlet_label_skew", alpha=0.5, seed=1)
    ss.class_means  # cached on the spec; not a partition temporary
    tracemalloc.start()
    try:
        shards = partition(ps, ss, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(
        a.nbytes for s in shards for ds in (s.train, s.test) for a in (ds.features, ds.labels)
    )
    assert peak - held <= 4 * 2**20


@pytest.mark.parametrize("cap", [1, 1 << 30], ids=["one-client-per-block", "one-block"])
def test_partition_does_not_depend_on_the_block_cap(monkeypatch, cap):
    # at the default cap these 40 clients of 300 samples fill three blocks
    ss = SyntheticSpec(3, 7, 2.0, 0.5, samples_per_client=300, seed=5)
    specs = [
        PartitionSpec("iid", seed=3),
        PartitionSpec("dirichlet_label_skew", alpha=0.3, seed=3),
        PartitionSpec("quantity_skew", sigma=0.8, seed=3),
    ]
    want = [partition(ps, ss, 40) for ps in specs]
    monkeypatch.setattr(data, "BLOCK_BYTES", cap)
    for ps, shards in zip(specs, want):
        for got, ref in zip(partition(ps, ss, 40), shards, strict=True):
            assert got.client_id == ref.client_id
            for g, w in ((got.train, ref.train), (got.test, ref.test)):
                assert np.array_equal(g.features, w.features)
                assert np.array_equal(g.labels, w.labels)


def test_split_sizes_and_histogram():
    shard = _one(SS, 0, [1 / 3] * 3, 120)
    assert len(shard.test) == 24
    assert len(shard.train) == 96
    assert _train_counts(shard).sum() == 96


def test_split_single_sample_keeps_train():
    shard = _one(SS, 0, [1 / 3] * 3, 1)
    assert len(shard.train) == 1 and len(shard.test) == 0


# ---------------------------------------------------------------------------
# augment_balance
# ---------------------------------------------------------------------------


def _skewed_shard(n0=90, n1=10):
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(n0 + n1, 3))
    labels = np.array([0] * n0 + [1] * n1)
    train = Dataset(feats, labels, 2)
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
    return ClientShard(0, train, empty)


def test_augment_noop_when_already_balanced():
    shard = _skewed_shard(50, 50)
    assert augment_balance(shard, [0.5, 0.5], noise_sigma=0.5) is shard


def test_augment_90_10_reaches_target():
    shard = _skewed_shard(90, 10)
    out = augment_balance(shard, [0.5, 0.5], noise_sigma=0.5, seed=3)
    dist = label_distribution(out)
    assert 0.5 * np.abs(dist - 0.5).sum() <= 0.05
    # originals retained
    assert np.array_equal(out.train.features[:100], shard.train.features)
    assert len(out.train) > 100


def test_augment_respects_duplication_cap():
    shard = _skewed_shard(990, 1)
    out = augment_balance(shard, [0.5, 0.5], noise_sigma=0.5, seed=3)
    # the single class-1 sample can grow to at most 10 copies
    assert _train_counts(out)[1] == 10
    dist = label_distribution(out)
    assert 0.5 * np.abs(dist - 0.5).sum() > 0.05


def test_augment_absent_class_rejected():
    shard = _skewed_shard(100, 0)
    with pytest.raises(UnresolvableClassError, match="class 1"):
        augment_balance(shard, [0.5, 0.5], noise_sigma=0.5)


def test_augment_default_target_is_uniform_over_held_classes():
    # a shard that holds every class gets the uniform target, bit for bit
    shard = _skewed_shard(90, 10)
    default = augment_balance(shard, None, noise_sigma=0.5, seed=3)
    uniform = augment_balance(shard, [0.5, 0.5], noise_sigma=0.5, seed=3)
    assert default.train.features.tobytes() == uniform.train.features.tobytes()
    assert np.array_equal(_train_counts(default), _train_counts(uniform))
    # one that lacks a class is balanced over the rest, not rejected
    one_class = _skewed_shard(100, 0)
    assert augment_balance(one_class, None, noise_sigma=0.5) is one_class


def test_augment_deterministic():
    shard = _skewed_shard(80, 20)
    a = augment_balance(shard, [0.5, 0.5], noise_sigma=0.5, seed=9)
    b = augment_balance(shard, [0.5, 0.5], noise_sigma=0.5, seed=9)
    assert np.array_equal(a.train.features, b.train.features)


# ---------------------------------------------------------------------------
# label_distribution / export / holdout
# ---------------------------------------------------------------------------


def test_label_distribution_normalizes():
    shard = _skewed_shard(30, 70)
    assert np.array_equal(label_distribution(shard), np.array([0.3, 0.7]))


def test_label_distribution_empty_rejected():
    shard = _skewed_shard(50, 50)
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
    from dataclasses import replace
    bad = replace(shard, train=empty)
    with pytest.raises(ValueError, match="empty"):
        label_distribution(bad)


def test_holdout_normalized_and_deterministic():
    a = make_holdout(SS, 500, seed=99)
    b = make_holdout(SS, 500, seed=99)
    assert np.array_equal(a.features, b.features)
    assert np.all(np.abs(a.features.mean(axis=0)) <= 1e-9)
    counts = np.bincount(a.labels, minlength=3)
    assert counts.min() > 100  # roughly balanced
