"""Registry transitions, selection strategies, and clustering checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.errors import ConflictError, SelectionStarvationError
from fedsim.models import (
    INIT_SEEDED_UNIFORM,
    INIT_ZEROS,
    ArchDescriptor,
    EvalReport,
    Hyperparameters,
)
from fedsim.orchestrator import (
    STATUS_ACTIVE,
    STATUS_DROPPED,
    STRATEGY_TOP_ACCURACY,
    STRATEGY_TOP_RESOURCE,
    ClientRegistry,
    SelectionCriteria,
    cluster_clients,
    create_job,
    record_to_json,
    select_clients,
)

ARCH = ArchDescriptor("logistic", 4, 0, 3)
HP = Hyperparameters(learning_rate=0.1, epochs=1, batch_size=8, l2=0.0, seed=5)


def _registry(scores, n_samples=50):
    reg = ClientRegistry()
    for cid, score in enumerate(scores):
        reg.register(cid, score, n_samples, t=0.0)
    return reg


def _report(accuracy, loss=0.3):
    return EvalReport(loss=loss, accuracy=accuracy, n_samples=10, per_class_counts=(5, 5))


# ---------------------------------------------------------------------------
# job creation
# ---------------------------------------------------------------------------


def test_create_job_zeros_init():
    package = create_job(ARCH, HP, INIT_ZEROS)
    assert package.version_id == "g0"
    assert np.linalg.norm(package.params.values) == 0.0
    assert package.hp == HP


def test_create_job_is_deterministic():
    a = create_job(ARCH, HP, INIT_SEEDED_UNIFORM)
    b = create_job(ARCH, HP, INIT_SEEDED_UNIFORM)
    assert a.params.values.tobytes() == b.params.values.tobytes()
    assert np.max(np.abs(a.params.values)) <= 0.05
    assert np.any(a.params.values != 0.0)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_fresh_registration_starts_at_zero_rounds():
    reg = ClientRegistry()
    rec = reg.register(3, 0.8, 40, t=1.5)
    assert rec.rounds_participated == 0
    assert rec.status == STATUS_ACTIVE
    assert rec.registered_at == 1.5
    assert 3 in reg and len(reg) == 1


def test_duplicate_active_registration_rejected():
    reg = _registry([0.5])
    with pytest.raises(ConflictError, match="already registered"):
        reg.register(0, 0.9, 10, t=2.0)


def test_reactivation_keeps_participation_count():
    reg = _registry([0.5, 0.6])
    for _ in range(5):
        reg.record_participation(0, _report(0.8))
    reg.mark_dropped(0)
    assert reg.get(0).status == STATUS_DROPPED
    assert reg.active_ids() == [1]
    # a dropped client comes back through reactivate only
    with pytest.raises(ConflictError, match="already registered"):
        reg.register(0, 0.7, 60, t=9.0)
    reg.reactivate(0)
    rec = reg.get(0)
    assert rec.status == STATUS_ACTIVE
    assert rec.rounds_participated == 5
    assert rec.last_local_eval == _report(0.8)
    assert reg.active_ids() == [0, 1]


def test_participation_updates_eval():
    reg = _registry([0.5])
    reg.record_participation(0, _report(0.9, loss=0.1))
    rec = reg.get(0)
    assert rec.rounds_participated == 1
    assert rec.last_local_eval.accuracy == 0.9


def test_registry_jsonl_snapshot(tmp_path):
    reg = _registry([0.5, 0.6])
    reg.record_participation(1, _report(0.75))
    path = tmp_path / "registry.jsonl"
    reg.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert '"client_id": 0' in lines[0]
    snap = record_to_json(reg.get(1))
    assert snap["last_local_eval"]["accuracy"] == 0.75


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_full_fraction_selects_everyone_sorted():
    reg = _registry([0.9, 0.2, 0.7, 0.4])
    selected = select_clients(reg, SelectionCriteria(), 1.0, 0, seed=1)
    assert selected == (0, 1, 2, 3)


def test_resource_filter_excludes_low_scores():
    reg = _registry([0.2, 0.9])
    criteria = SelectionCriteria(min_resource=0.5)
    selected = select_clients(reg, criteria, 1.0, 0, seed=1)
    assert selected == (1,)


def test_sample_filter_and_starvation():
    reg = _registry([0.9, 0.9], n_samples=5)
    criteria = SelectionCriteria(min_samples=10)
    with pytest.raises(SelectionStarvationError, match="no active client"):
        select_clients(reg, criteria, 1.0, 3, seed=1)


def test_dropped_clients_are_not_eligible():
    reg = _registry([0.9, 0.9, 0.9])
    reg.mark_dropped(1)
    selected = select_clients(reg, SelectionCriteria(), 1.0, 0, seed=1)
    assert selected == (0, 2)


def test_uniform_selection_golden_triple():
    # frozen from the first audited run: 10 eligible, fraction 0.3, seed 7
    reg = _registry([1.0] * 10)
    selected = select_clients(reg, SelectionCriteria(), 0.3, 1, seed=7)
    assert len(selected) == 3
    assert selected == (3, 4, 9)


def test_uniform_selection_is_deterministic_and_round_sensitive():
    reg = _registry([1.0] * 10)
    a = select_clients(reg, SelectionCriteria(), 0.5, 2, seed=11)
    b = select_clients(reg, SelectionCriteria(), 0.5, 2, seed=11)
    c = select_clients(reg, SelectionCriteria(), 0.5, 3, seed=11)
    assert a == b
    assert len(c) == len(a)
    assert a != c


def test_top_resource_takes_highest_with_id_tiebreak():
    reg = _registry([0.5, 0.9, 0.9, 0.1])
    criteria = SelectionCriteria(strategy=STRATEGY_TOP_RESOURCE)
    selected = select_clients(reg, criteria, 0.5, 0, seed=1)
    assert selected == (1, 2)


def test_top_accuracy_prefers_evaluated_clients():
    reg = _registry([0.9] * 4)
    reg.record_participation(2, _report(0.6))
    reg.record_participation(3, _report(0.8))
    criteria = SelectionCriteria(strategy=STRATEGY_TOP_ACCURACY)
    selected = select_clients(reg, criteria, 0.5, 0, seed=1)
    assert selected == (2, 3)


def test_selection_count_is_ceiling():
    reg = _registry([1.0] * 7)
    selected = select_clients(reg, SelectionCriteria(), 0.3, 0, seed=2)
    assert len(selected) == 3  # ceil(0.3 * 7)


def test_fraction_bounds_checked():
    reg = _registry([1.0])
    with pytest.raises(ValueError, match="fraction"):
        select_clients(reg, SelectionCriteria(), 0.0, 0, seed=1)
    with pytest.raises(ValueError, match="fraction"):
        select_clients(reg, SelectionCriteria(), 1.2, 0, seed=1)


@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_uniform_selection_within_eligible_set(seed, n):
    reg = _registry([1.0] * n)
    selected = select_clients(reg, SelectionCriteria(), 0.4, 0, seed=seed)
    assert len(selected) == len(set(selected))
    assert set(selected) <= set(range(n))
    assert selected == tuple(sorted(selected))


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def test_single_cluster_centroid_is_normalized_mean():
    rng = np.random.default_rng(0)
    vectors = {i: rng.normal(size=6) for i in range(5)}
    result = cluster_clients(vectors, k=1, seed=3)
    assert set(result.assignment.values()) == {0}
    raw = np.stack([vectors[i] for i in range(5)])
    centered = raw - raw.mean(axis=0)
    normalized = centered / np.linalg.norm(centered, axis=1, keepdims=True)
    expected = normalized.mean(axis=0)
    expected = expected / np.linalg.norm(expected)
    assert np.max(np.abs(result.centroids[0] - expected)) <= 1e-9


def test_orthogonal_groups_separate_exactly():
    rng = np.random.default_rng(1)
    vectors = {}
    for i in range(6):
        v = np.zeros(10)
        v[:5] = 1.0 + 0.05 * rng.normal(size=5)
        vectors[i] = v
    for i in range(6, 12):
        v = np.zeros(10)
        v[5:] = 1.0 + 0.05 * rng.normal(size=5)
        vectors[i] = v
    result = cluster_clients(vectors, k=2, seed=9)
    first = {result.assignment[i] for i in range(6)}
    second = {result.assignment[i] for i in range(6, 12)}
    assert len(first) == 1 and len(second) == 1
    assert first != second


def test_more_clusters_never_raise_inertia():
    rng = np.random.default_rng(5)
    vectors = {i: rng.normal(size=8) for i in range(10)}
    one = cluster_clients(vectors, k=1, seed=4)
    two = cluster_clients(vectors, k=2, seed=4)
    assert two.inertia <= one.inertia + 1e-9


def test_cluster_k_bounds():
    vectors = {0: np.ones(3), 1: np.zeros(3)}
    with pytest.raises(ValueError, match="k must"):
        cluster_clients(vectors, k=3, seed=1)
    with pytest.raises(ValueError, match="k must"):
        cluster_clients(vectors, k=0, seed=1)


def test_cluster_deterministic_under_seed():
    rng = np.random.default_rng(6)
    vectors = {i: rng.normal(size=5) for i in range(9)}
    a = cluster_clients(vectors, k=3, seed=8)
    b = cluster_clients(vectors, k=3, seed=8)
    assert a.assignment == b.assignment
    assert a.inertia == b.inertia


@given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_every_client_maps_to_nearest_centroid(seed, n, k):
    if k > n:
        k = n
    rng = np.random.default_rng(seed)
    vectors = {i: rng.normal(size=4) for i in range(n)}
    result = cluster_clients(vectors, k=k, seed=seed)
    raw = np.stack([vectors[i] for i in range(n)])
    centered = raw - raw.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1, keepdims=True)
    rows = centered / np.where(norms > 1e-12, norms, 1.0)
    distances = 1.0 - rows @ result.centroids.T
    for i in range(n):
        assigned = result.assignment[i]
        best = float(distances[i].min())
        assert distances[i, assigned] <= best + 1e-9
        # ties resolve to the lowest cluster index
        if assigned != int(distances[i].argmin()):
            assert distances[i, assigned] <= best + 1e-12
