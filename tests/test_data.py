import numpy as np
import pytest
from scipy import stats as scipy_stats

from fedsim.data import (
    ClientShard,
    PartitionSpec,
    SyntheticSpec,
    augment_balance,
    build_shard,
    client_class_weights,
    client_sample_counts,
    collect,
    label_distribution,
    make_holdout,
    partition,
    preprocess,
    split_train_test,
)
from fedsim.errors import UnresolvableClassError
from fedsim.models import Dataset

SS = SyntheticSpec(
    num_classes=3, input_dim=4, class_mean_scale=2.0, noise_sigma=0.5,
    samples_per_client=120, seed=7,
)


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------


def test_collect_degenerate_weights_single_class():
    ss = SyntheticSpec(2, 3, 1.0, 0.5, 50, seed=1)
    data = collect(ss, 0, [1.0, 0.0])
    assert np.all(data.labels == 0)


def test_collect_uniform_frequencies_within_binomial_bound():
    n = 10_000
    data = collect(SS, 0, [1 / 3] * 3, n_samples=n)
    p = 1 / 3
    bound = 3 * np.sqrt(p * (1 - p) / n)
    freqs = np.bincount(data.labels, minlength=3) / n
    assert np.all(np.abs(freqs - p) <= bound)


def test_collect_deterministic_and_client_independent():
    a = collect(SS, 3, [1 / 3] * 3)
    b = collect(SS, 3, [1 / 3] * 3)
    c = collect(SS, 4, [1 / 3] * 3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_collect_rejects_bad_weights():
    with pytest.raises(ValueError, match="non-negative"):
        collect(SS, 0, [1.2, -0.2, 0.0])
    with pytest.raises(ValueError, match="sum to 1"):
        collect(SS, 0, [0.5, 0.1, 0.1])
    with pytest.raises(ValueError, match="length"):
        collect(SS, 0, [0.5, 0.5])


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def test_preprocess_zscores_and_flags_constant_columns():
    rng = np.random.default_rng(2)
    feats = rng.normal(5.0, 3.0, size=(200, 3))
    feats[:, 1] = 42.0  # constant column
    raw = Dataset(feats, rng.integers(0, 2, size=200), 2)
    scaled = preprocess(raw)
    # constant column passes through untouched
    assert np.array_equal(scaled.features[:, 1], feats[:, 1])
    for j in (0, 2):
        assert abs(scaled.features[:, j].mean()) <= 1e-9
        assert abs(scaled.features[:, j].var() - 1.0) <= 1e-9


def test_preprocess_idempotent_within_tolerance():
    rng = np.random.default_rng(3)
    raw = Dataset(rng.normal(2.0, 4.0, size=(150, 4)), rng.integers(0, 2, size=150), 2)
    once = preprocess(raw)
    twice = preprocess(once)
    assert np.max(np.abs(twice.features - once.features)) <= 1e-9


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_iid_partition_histograms_match_uniform():
    shards = partition(PartitionSpec("iid", seed=5), SS, 10)
    k = SS.num_classes
    stat = 0.0
    df = 0
    for shard in shards:
        n = sum(shard.label_histogram)
        expected = n / k
        stat += sum((c - expected) ** 2 / expected for c in shard.label_histogram)
        df += k - 1
    assert stat < scipy_stats.chi2.ppf(0.999, df)


def test_dirichlet_huge_alpha_is_nearly_uniform():
    ps = PartitionSpec("dirichlet_label_skew", alpha=1e6, seed=5)
    weights = client_class_weights(ps, SS, 10)
    assert np.all(weights.max(axis=1) <= 1 / SS.num_classes + 0.05)


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


def test_shard_regeneration_is_client_local():
    ps = PartitionSpec("dirichlet_label_skew", alpha=0.5, seed=11)
    shards = partition(ps, SS, 5)
    weights = client_class_weights(ps, SS, 5)
    counts = client_sample_counts(ps, SS, 5)
    # rebuilding client 2 alone reproduces its shard bit for bit
    alone = build_shard(SS, 2, weights[2], int(counts[2]))
    assert np.array_equal(alone.train.features, shards[2].train.features)
    assert np.array_equal(alone.test.features, shards[2].test.features)
    assert alone.label_histogram == shards[2].label_histogram


def _reference_shard(ss, client_id, weights, n_samples):
    """build_shard with every intermediate set built as a validated Dataset."""
    raw = collect(ss, client_id, weights, n_samples=n_samples)
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
    ss = SyntheticSpec(3, 4, 2.0, 0.5, samples_per_client=12, seed=9)
    shards = partition(ps, ss, 40)
    weights = client_class_weights(ps, ss, 40)
    counts = client_sample_counts(ps, ss, 40)
    for cid, shard in enumerate(shards):
        train, test = _reference_shard(ss, cid, weights[cid], int(counts[cid]))
        for got, want in ((shard.train, train), (shard.test, test)):
            assert got.features.dtype == np.float64 and got.labels.dtype == np.int64
            assert np.array_equal(got.features, want.features)
            assert np.array_equal(got.labels, want.labels)
            assert got.num_classes == want.num_classes
            assert not got.features.flags.writeable and not got.labels.flags.writeable


def test_split_sizes_and_histogram():
    shard = build_shard(SS, 0, [1 / 3] * 3, 120)
    assert len(shard.test) == 24
    assert len(shard.train) == 96
    hist = np.bincount(shard.train.labels, minlength=3)
    assert shard.label_histogram == tuple(int(c) for c in hist)


def test_split_single_sample_keeps_train():
    data = Dataset(np.ones((1, 2)), np.zeros(1, dtype=int), 2)
    train, test = split_train_test(data, seed=0)
    assert len(train) == 1 and len(test) == 0


# ---------------------------------------------------------------------------
# augment_balance
# ---------------------------------------------------------------------------


def _skewed_shard(n0=90, n1=10):
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(n0 + n1, 3))
    labels = np.array([0] * n0 + [1] * n1)
    train = Dataset(feats, labels, 2)
    hist = tuple(np.bincount(labels, minlength=2).tolist())
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
    return ClientShard(0, train, empty, hist)


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
    assert out.label_histogram[1] == 10
    dist = label_distribution(out)
    assert 0.5 * np.abs(dist - 0.5).sum() > 0.05


def test_augment_absent_class_rejected():
    shard = _skewed_shard(100, 0)
    with pytest.raises(UnresolvableClassError, match="class 1"):
        augment_balance(shard, [0.5, 0.5], noise_sigma=0.5)


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
    bad = replace(shard, train=empty, label_histogram=(0, 0))
    with pytest.raises(ValueError, match="empty"):
        label_distribution(bad)


def test_holdout_normalized_and_deterministic():
    a = make_holdout(SS, 500, seed=99)
    b = make_holdout(SS, 500, seed=99)
    assert np.array_equal(a.features, b.features)
    assert np.all(np.abs(a.features.mean(axis=0)) <= 1e-9)
    counts = np.bincount(a.labels, minlength=3)
    assert counts.min() > 100  # roughly balanced
