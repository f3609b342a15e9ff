"""Aggregator equivalences, gossip mixing, and ledger integrity checks."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.aggregation import (
    MODE_FEDAVG,
    MODE_INIT,
    ROOT_VERSION,
    Contributor,
    EdgeGroup,
    GlobalVersionRecord,
    GossipGraph,
    VersionLedger,
    WeightedUpdate,
    async_merge,
    fedavg,
    gossip_round,
    hierarchical_aggregate,
    mask_submission,
    node_mean,
    pairwise_pads,
    record_from_json,
    record_to_json,
    run_gossip,
    secure_sum,
    staleness_factor,
)
from fedsim.config import parse_config
from fedsim.errors import ConfigError, IntegrityError, PartitionError, SecureAbortError
from fedsim.models import ParameterVector
from fedsim.runner import run_experiment
from fedsim.wire import (
    K_UPDATE_DENSE,
    fnv1a64,
    id_streams,
    params_hash,
    pcg64_state,
    seed_words,
)


def _oracle_weighted_mean(triples):
    """Two-pass reference: total weight first, then the weighted sum.

    Accumulates in the given order; callers pass triples sorted by id.
    """
    total = 0
    for _, _, n in triples:
        total += n
    acc = np.zeros(len(triples[0][1]))
    for _, values, n in triples:
        acc = acc + values * n
    return acc / total


def _random_updates(rng, count, dim, id_offset=0):
    ids = rng.permutation(count) + id_offset
    return [
        WeightedUpdate(int(cid), ParameterVector(rng.normal(size=dim)), int(rng.integers(1, 500)))
        for cid in ids
    ]


# ---------------------------------------------------------------------------
# weighted averaging
# ---------------------------------------------------------------------------


def test_fedavg_single_update_is_identity():
    p = ParameterVector(np.array([0.1, -0.7, 3.3]))
    out = fedavg([WeightedUpdate(4, p, 17)])
    assert out.values.tobytes() == p.values.tobytes()


def test_fedavg_two_client_weighted_mean():
    u1 = WeightedUpdate(0, ParameterVector(np.array([1.0, 3.0])), 1)
    u2 = WeightedUpdate(1, ParameterVector(np.array([3.0, 5.0])), 3)
    out = fedavg([u1, u2])
    assert np.array_equal(out.values, np.array([2.5, 4.5]))


def test_fedavg_fifty_updates_bitwise_match_against_two_pass_oracle():
    rng = np.random.default_rng(7)
    updates = _random_updates(rng, 50, 23)
    triples = sorted(
        ((u.client_id, u.params.values, u.n_samples) for u in updates), key=lambda t: t[0]
    )
    expected = _oracle_weighted_mean(triples)
    out = fedavg(updates)
    assert out.values.tobytes() == expected.tobytes()


def test_fedavg_order_is_by_client_id_not_list_position():
    rng = np.random.default_rng(11)
    updates = _random_updates(rng, 20, 9)
    a = fedavg(updates)
    b = fedavg(list(reversed(updates)))
    assert a.values.tobytes() == b.values.tobytes()


def test_fedavg_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        fedavg([])
    u1 = WeightedUpdate(0, ParameterVector(np.zeros(3)), 1)
    u2 = WeightedUpdate(1, ParameterVector(np.zeros(4)), 1)
    with pytest.raises(ValueError, match="dimension"):
        fedavg([u1, u2])
    with pytest.raises(ValueError, match="duplicate"):
        fedavg([u1, WeightedUpdate(0, ParameterVector(np.ones(3)), 2)])


def test_weighted_update_validates():
    with pytest.raises(ValueError):
        WeightedUpdate(-1, ParameterVector(np.zeros(2)), 1)
    with pytest.raises(ValueError):
        WeightedUpdate(0, ParameterVector(np.zeros(2)), 0)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_fedavg_stays_inside_coordinate_hull(seed, count):
    rng = np.random.default_rng(seed)
    updates = _random_updates(rng, count, 6)
    out = fedavg(updates).values
    stack = np.stack([u.params.values for u in updates])
    assert np.all(out >= stack.min(axis=0) - 1e-12)
    assert np.all(out <= stack.max(axis=0) + 1e-12)


# ---------------------------------------------------------------------------
# masked-sum aggregation
# ---------------------------------------------------------------------------


def _accumulators(updates, pads):
    """One row per participant in pads.ids order, each params * n_samples."""
    by_id = {u.client_id: u for u in updates}
    return np.stack([by_id[cid].params.values * by_id[cid].n_samples for cid in pads.ids])


def _masked(updates, round_seed):
    """The runner's masking step: pad seeds over every committed client, then
    each accumulator row, from params * n_samples, is masked in ascending id
    order. Returns {client id: masked submission}."""
    pads = pairwise_pads([u.client_id for u in updates], round_seed)
    acc = _accumulators(updates, pads)
    for cid in pads.ids:
        mask_submission(cid, acc, pads)
    return dict(zip(pads.ids, acc))


def test_pads_cancel_for_two_clients():
    rng = np.random.default_rng(0)
    u1 = WeightedUpdate(3, ParameterVector(rng.normal(size=8)), 5)
    u2 = WeightedUpdate(9, ParameterVector(rng.normal(size=8)), 2)
    masked = _masked([u1, u2], round_seed=123)
    masked_total = masked[3] + masked[9]
    plain_total = u1.params.values * 5 + u2.params.values * 2
    assert np.max(np.abs(masked_total - plain_total)) <= 1e-9
    # each submission alone is obscured
    assert np.min(np.abs(masked[3] - u1.params.values * 5)) > 0


def _secure_round(updates, round_seed):
    """The runner's secure exchange without the network: each client's
    masked submission, and the server's sum of them."""
    ids = [u.client_id for u in updates]
    submissions = list(_masked(updates, round_seed).items())
    return secure_sum(submissions, sum(u.n_samples for u in updates), ids)


def test_secure_round_matches_fedavg_for_five_clients():
    rng = np.random.default_rng(21)
    updates = _random_updates(rng, 5, 40)
    gap = np.abs(_secure_round(updates, round_seed=77).values - fedavg(updates).values)
    assert np.max(gap) <= 1e-9


def test_secure_round_rejects_single_contributor(tmp_path):
    # one eligible client per round (only client 3's resource clears 0.5):
    # the runner fails every round rather than mask alone
    raw = {
        "n_clients": 4, "rounds": 2, "aggregation_mode": "secure",
        "optional_components": ["selector"], "selection": {"min_resource": 0.5},
    }
    res = run_experiment(parse_config(raw), tmp_path)
    assert res.ledger.versions() == ("g0",)
    events = [json.loads(line) for line in (tmp_path / "event_log.jsonl").read_text().splitlines()]
    failed = [e for e in events if e["event"] == "round_failed"]
    assert [e["round"] for e in failed] == [0, 1]
    assert all(e["reason"] == "fewer than 2 masking participants" for e in failed)
    assert [e["client_id"] for e in events if e["event"] == "local_train"] == [3, 3]


def test_secure_sum_aborts_on_missing_participant():
    rng = np.random.default_rng(5)
    updates = _random_updates(rng, 4, 6)
    ids = sorted(u.client_id for u in updates)
    submissions = [s for s in _masked(updates, round_seed=9).items() if s[0] != ids[1]]
    total = sum(u.n_samples for u in updates)
    with pytest.raises(SecureAbortError, match=f"missing \\[{ids[1]}\\]"):
        secure_sum(submissions, total, ids)


def test_pads_are_deterministic_and_shared():
    a = pairwise_pads([1, 2, 5], round_seed=42)
    b = pairwise_pads([5, 1, 2], round_seed=42)
    assert a.ids == b.ids == (1, 2, 5)
    assert np.array_equal(a.words, b.words)
    assert a.words.shape == (3, 4)
    updates = _random_updates(np.random.default_rng(4), 3, 7, id_offset=1)
    first, again = _masked(updates, 42), _masked(updates[::-1], 42)
    assert all(np.array_equal(first[cid], again[cid]) for cid in first)
    c = pairwise_pads([1, 2, 5], round_seed=43)
    assert not np.array_equal(a.words[0], c.words[0])
    with pytest.raises(ValueError, match="duplicate"):
        pairwise_pads([1, 2, 2], round_seed=42)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        pairwise_pads([1, 2**32], round_seed=42)
    with pytest.raises(ValueError, match="client 3 is not a masking participant"):
        mask_submission(3, np.zeros((3, 7)), a)
    with pytest.raises(ValueError, match="2 accumulator rows for 3 participants"):
        mask_submission(1, np.zeros((2, 7)), a)


# today's pad material, kept as the reference: one default_rng per pair seed
PAD_SALT_REFERENCE = 301


def _reference_pad_seed(round_seed, low, high):
    return fnv1a64(struct.pack("<QIII", round_seed, PAD_SALT_REFERENCE, low, high))


def _reference_masked(updates, round_seed):
    """Every pad held at once in a dict, and each submission built by walking
    its client's pairs in sorted order."""
    ids = sorted(u.client_id for u in updates)
    dim = len(updates[0].params)
    pads = {}
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            rng = np.random.default_rng(_reference_pad_seed(round_seed, ids[a], ids[b]))
            pads[ids[a], ids[b]] = rng.uniform(-1.0, 1.0, size=dim)
    out = {}
    for u in updates:
        cid = u.client_id
        masked = u.params.values * u.n_samples
        for low, high in sorted(pair for pair in pads if cid in pair):
            masked = masked + pads[low, high] if low == cid else masked - pads[low, high]
        out[cid] = masked
    return out


@pytest.mark.parametrize("round_seed", [0, 2**64 - 1])
def test_pair_seeds_equal_fnv_of_the_packed_pair(round_seed):
    # ids whose bytes are all zero, one low byte, one high byte, all 0xff
    ids = [0, 1, 2**24, 2**32 - 1]
    pads = pairwise_pads(ids[::-1], round_seed)
    pairs = [(low, high) for a, low in enumerate(ids) for high in ids[a + 1 :]]
    want = [_reference_pad_seed(round_seed, low, high) for low, high in pairs]
    assert np.array_equal(pads.words, _uint64_seed_words(want))


EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1]


def _uint64_seed_words(seeds):
    """seed_words of uint64 seeds, each as its (low, high) word columns."""
    seeds = np.array(seeds, dtype=np.uint64)
    return seed_words([seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)])


def test_seed_words_equal_seed_sequence_state():
    rng = np.random.default_rng(2000)
    seeds = EDGE_SEEDS + rng.integers(0, 2**64, size=2000, dtype=np.uint64).tolist()
    want = np.stack([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    got = _uint64_seed_words(seeds)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


def test_pad_drawn_from_seed_words_equals_default_rng():
    seeds = EDGE_SEEDS + [_reference_pad_seed(7, 3, 11)]
    rng = np.random.Generator(np.random.PCG64(0))
    for seed, words in zip(seeds, _uint64_seed_words(seeds).tolist()):
        rng.bit_generator.state = pcg64_state(words)
        drawn = rng.uniform(-1.0, 1.0, size=330)
        assert np.array_equal(drawn, np.random.default_rng(seed).uniform(-1.0, 1.0, size=330))


# entropy lists as the callers build them, and two past the 4-word pool;
# the seed gives one word below 2**32 and two from there to 2**64
ENTROPY_SHAPES = {
    "seed-id-salt": lambda seed, ids: [seed, ids, 102],  # 3 or 4 words
    "seed-salt-id": lambda seed, ids: [seed, 403, ids],  # 3 or 4 words
    "five-words": lambda seed, ids: [seed, 2**33, ids, 0],  # 5 or 6 words
    "six-words": lambda seed, ids: [seed, ids, 2**64 + 1, 7],  # 6 or 7 words
}
LIST_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + np.random.default_rng(2001).integers(
    0, 2**64, size=2000, dtype=np.uint64
).tolist()
EDGE_IDS = np.array([0, 2**32 - 1, 5], dtype=np.uint64)


@pytest.mark.parametrize("shape", list(ENTROPY_SHAPES))
def test_seed_words_of_list_entropy_equal_seed_sequence_state(shape):
    build = ENTROPY_SHAPES[shape]
    for seed in LIST_SEEDS:
        got = seed_words(build(seed, EDGE_IDS))
        want = np.stack([
            np.random.SeedSequence(build(seed, cid)).generate_state(4, np.uint64)
            for cid in EDGE_IDS.tolist()
        ])
        assert np.array_equal(got, want), (seed, shape)


@pytest.mark.parametrize("shape", list(ENTROPY_SHAPES))
def test_id_streams_draw_as_default_rng(shape):
    build = ENTROPY_SHAPES[shape]
    for seed in LIST_SEEDS[:40]:
        ids = []
        for cid, rng in id_streams(build(seed, EDGE_IDS)):
            ids.append(cid)
            want = np.random.default_rng(build(seed, cid))
            assert np.array_equal(rng.random(3), want.random(3)), (seed, shape, cid)
            assert np.array_equal(rng.normal(0.0, 2.0, 5), want.normal(0.0, 2.0, 5))
        assert ids == EDGE_IDS.tolist()


def test_seed_words_reject_an_id_past_one_word():
    with pytest.raises(ValueError, match=r"2\*\*32"):
        seed_words([1, np.array([0, 2**32], dtype=np.uint64), 102])
    with pytest.raises(ValueError, match=r"2\*\*32"):
        id_streams([1, 403, np.array([2**32])])


@pytest.mark.parametrize("n", [2, 3, 100])
def test_streamed_masking_equals_pad_dict_reference(n):
    rng = np.random.default_rng(n)
    ids = sorted(rng.choice(2000, size=n, replace=False).tolist())
    assert n == 2 or ids != list(range(ids[0], ids[0] + n))  # non-contiguous
    updates = [
        WeightedUpdate(cid, ParameterVector(rng.normal(size=33)), int(rng.integers(1, 50)))
        for cid in ids
    ]
    round_seed = int(rng.integers(0, 2**63))
    got = _masked(updates, round_seed)
    want = _reference_masked(updates, round_seed)
    assert sorted(got) == ids
    assert all(np.array_equal(got[cid], want[cid]) for cid in ids)


def test_masking_step_holds_one_pad_at_a_time():
    # 100 participants at d=330: a pad dict would hold 4,950 pads of 2,640
    # bytes, 12.5 MiB; each call holds only its own participant's pads
    rng = np.random.default_rng(8)
    ids = sorted(rng.choice(2000, size=100, replace=False).tolist())
    acc = rng.normal(size=(100, 330))
    tracemalloc.start()
    try:
        pads = pairwise_pads(ids, round_seed=99)
        for cid in ids:
            mask_submission(cid, acc, pads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_secure_equivalence_property(seed, count):
    rng = np.random.default_rng(seed)
    updates = _random_updates(rng, count, 12)
    gap = np.abs(_secure_round(updates, round_seed=seed).values - fedavg(updates).values)
    assert np.max(gap) <= 1e-9


# ---------------------------------------------------------------------------
# asynchronous merging
# ---------------------------------------------------------------------------


def test_async_fresh_full_weight_returns_update():
    g = ParameterVector(np.array([1.0, 2.0]))
    u = ParameterVector(np.array([-3.0, 0.5]))
    out = async_merge(g, u, current_round=4, base_round=4, alpha0=1.0, decay=0.5)
    assert np.array_equal(out.values, u.values)


def test_async_half_weight_midpoint():
    g = ParameterVector(np.array([0.0, 0.0]))
    u = ParameterVector(np.array([2.0, 2.0]))
    out = async_merge(g, u, current_round=1, base_round=1, alpha0=0.5, decay=1.0)
    assert np.array_equal(out.values, np.array([1.0, 1.0]))


def test_async_factor_non_increasing_in_staleness():
    factors = [staleness_factor(0.6, 0.5, s) for s in range(11)]
    for older, newer in zip(factors[1:], factors):
        assert older <= newer
    assert factors[0] == 0.6


def test_async_merge_self_is_exact_fixed_point():
    rng = np.random.default_rng(3)
    g = ParameterVector(rng.normal(size=50))
    for s in (0, 1, 7):
        out = async_merge(g, g, current_round=10, base_round=10 - s, alpha0=0.3, decay=0.7)
        assert np.array_equal(out.values, g.values)


def test_async_merge_argument_checks():
    g = ParameterVector(np.zeros(2))
    with pytest.raises(ValueError, match="ahead"):
        async_merge(g, g, current_round=1, base_round=2, alpha0=0.5, decay=0.5)
    with pytest.raises(ConfigError):
        staleness_factor(0.0, 0.5, 0)
    with pytest.raises(ConfigError):
        staleness_factor(1.5, 0.5, 0)
    with pytest.raises(ConfigError):
        staleness_factor(0.5, -0.1, 0)


@given(st.floats(0.01, 1.0), st.floats(0.0, 3.0), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_async_factor_stays_in_unit_interval(alpha0, decay, s):
    alpha = staleness_factor(alpha0, decay, s)
    assert 0.0 < alpha <= alpha0


# ---------------------------------------------------------------------------
# two-level aggregation
# ---------------------------------------------------------------------------


def test_single_group_equals_flat_bitwise():
    rng = np.random.default_rng(13)
    updates = _random_updates(rng, 10, 15)
    group = EdgeGroup(0, tuple(sorted(u.client_id for u in updates)))
    out = hierarchical_aggregate([group], updates)
    assert out.values.tobytes() == fedavg(updates).values.tobytes()


def test_singleton_groups_match_flat_closely():
    rng = np.random.default_rng(17)
    updates = _random_updates(rng, 8, 12)
    groups = [EdgeGroup(i, (u.client_id,)) for i, u in enumerate(updates)]
    gap = np.abs(hierarchical_aggregate(groups, updates).values - fedavg(updates).values)
    assert np.max(gap) <= 1e-12


def test_three_group_split_matches_flat():
    rng = np.random.default_rng(19)
    updates = _random_updates(rng, 12, 30)
    ids = [u.client_id for u in updates]
    groups = [
        EdgeGroup(0, tuple(ids[0:5])),
        EdgeGroup(1, tuple(ids[5:8])),
        EdgeGroup(2, tuple(ids[8:12])),
    ]
    gap = np.abs(hierarchical_aggregate(groups, updates).values - fedavg(updates).values)
    assert np.max(gap) <= 1e-12


def test_partition_violations_rejected():
    rng = np.random.default_rng(23)
    updates = _random_updates(rng, 4, 5)
    ids = sorted(u.client_id for u in updates)
    with pytest.raises(PartitionError, match="more than one group"):
        hierarchical_aggregate(
            [EdgeGroup(0, tuple(ids)), EdgeGroup(1, (ids[0],))], updates
        )
    with pytest.raises(PartitionError, match="not covered"):
        hierarchical_aggregate([EdgeGroup(0, tuple(ids[:-1]))], updates)
    with pytest.raises(PartitionError, match="no update"):
        hierarchical_aggregate([EdgeGroup(0, tuple(ids) + (999,))], updates)
    with pytest.raises(PartitionError, match="no edge groups"):
        hierarchical_aggregate([], updates)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_partitions_match_flat(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 15))
    updates = _random_updates(rng, count, 10)
    ids = [u.client_id for u in updates]
    n_groups = int(rng.integers(1, count + 1))
    assignment = rng.integers(0, n_groups, size=count)
    groups = []
    for gi in range(n_groups):
        members = [ids[i] for i in range(count) if assignment[i] == gi]
        if members:
            groups.append(EdgeGroup(gi, tuple(members)))
    gap = np.abs(hierarchical_aggregate(groups, updates).values - fedavg(updates).values)
    assert np.max(gap) <= 1e-12


# ---------------------------------------------------------------------------
# gossip mixing
# ---------------------------------------------------------------------------


def _ring_states(rng, n, dim):
    graph = GossipGraph.ring(list(range(n)))
    states = {i: ParameterVector(rng.normal(size=dim)) for i in range(n)}
    return graph, states


def test_gossip_consensus_is_fixed_point():
    graph = GossipGraph.ring([0, 1, 2, 3])
    same = ParameterVector(np.array([0.5, -1.5]))
    out = gossip_round(graph, {i: same for i in range(4)})
    for i in range(4):
        assert np.array_equal(out[i].values, same.values)


def test_gossip_two_node_path_averages():
    # a ring of two nodes is this path: its edges (0, 1) and (1, 0) are one
    for graph in (GossipGraph([0, 1], [(0, 1)]), GossipGraph.ring([0, 1])):
        assert graph.edges == ((0, 1),)
        assert graph.weight(0, 1) == 0.5
        out = gossip_round(
            graph,
            {0: ParameterVector(np.array([0.0])), 1: ParameterVector(np.array([2.0]))},
        )
        assert np.array_equal(out[0].values, np.array([1.0]))
        assert np.array_equal(out[1].values, np.array([1.0]))


def test_gossip_ring8_converges_to_initial_mean():
    rng = np.random.default_rng(31)
    graph, states = _ring_states(rng, 8, 6)
    initial_mean = np.mean(np.stack([states[i].values for i in range(8)]), axis=0)
    mixed = run_gossip(graph, states, 200)
    for i in range(8):
        assert np.max(np.abs(mixed[i].values - initial_mean)) <= 1e-6


def test_gossip_step_preserves_mean_and_shrinks_spread():
    rng = np.random.default_rng(37)
    graph, states = _ring_states(rng, 8, 4)
    mean_before = node_mean(states).values
    for _ in range(25):
        stack = np.stack([states[i].values for i in graph.nodes])
        spread_before = np.max(stack.max(axis=0) - stack.min(axis=0))
        states = gossip_round(graph, states)
        stack = np.stack([states[i].values for i in graph.nodes])
        spread_after = np.max(stack.max(axis=0) - stack.min(axis=0))
        assert spread_after <= spread_before + 1e-12
        drift = np.max(np.abs(node_mean(states).values - mean_before))
        assert drift <= 1e-12 * 25


def test_gossip_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        GossipGraph([0, 1, 2, 3], [(0, 1), (2, 3)])


def test_gossip_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        GossipGraph([0, 1], [(0, 0), (0, 1)])
    with pytest.raises(ValueError, match="leaves the node set"):
        GossipGraph([0, 1], [(0, 2)])


def test_gossip_states_must_cover_nodes():
    graph = GossipGraph.ring([0, 1, 2])
    with pytest.raises(ValueError, match="cover"):
        gossip_round(graph, {0: ParameterVector(np.zeros(2))})


def _random_connected_graph(rng, n):
    # random spanning tree plus a few extra edges
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(n, size=2, replace=False)
        edges.append((int(a), int(b)))
    return GossipGraph(list(range(n)), edges)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_mixing_matrix_is_doubly_stochastic(seed, n):
    graph = _random_connected_graph(np.random.default_rng(seed), n)
    # one gossip step over the unit vectors reads off the mixing matrix row by row
    unit = {node: ParameterVector(row) for node, row in zip(graph.nodes, np.eye(n))}
    mixed = gossip_round(graph, unit)
    w = np.stack([mixed[node].values for node in graph.nodes])
    assert np.all(w >= 0)
    assert np.max(np.abs(w - w.T)) == 0
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 10))
@settings(max_examples=30, deadline=None)
def test_gossip_mean_preserved_on_random_graphs(seed, n):
    rng = np.random.default_rng(seed)
    graph = _random_connected_graph(rng, n)
    states = {i: ParameterVector(rng.normal(size=5)) for i in range(n)}
    before = node_mean(states).values
    after = node_mean(gossip_round(graph, states)).values
    assert np.max(np.abs(after - before)) <= 1e-12


def test_node_mean_matches_numpy():
    rng = np.random.default_rng(41)
    states = {i: ParameterVector(rng.normal(size=7)) for i in range(5)}
    expected = np.mean(np.stack([states[i].values for i in range(5)]), axis=0)
    assert np.allclose(node_mean(states).values, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# version ledger
# ---------------------------------------------------------------------------


def _root_record():
    return GlobalVersionRecord(
        version_id=ROOT_VERSION,
        parent_version_id=None,
        params_hash=params_hash(np.zeros(4)),
        contributors=(),
        created_at_round=0,
        aggregation_mode=MODE_INIT,
    )


def _child_record(version_id, parent, round_index):
    values = np.full(4, float(round_index))
    contributor = Contributor(
        client_id=round_index,
        payload_hash=params_hash(values),
        n_samples=10,
        update_kind=K_UPDATE_DENSE,
        base_version=parent,
        loss=0.5,
        accuracy=0.9,
    )
    return GlobalVersionRecord(
        version_id=version_id,
        parent_version_id=parent,
        params_hash=params_hash(values + 1),
        contributors=(contributor,),
        created_at_round=round_index,
        aggregation_mode=MODE_FEDAVG,
    )


def test_ledger_root_lineage():
    ledger = VersionLedger()
    ledger.record(_root_record())
    assert ledger.versions() == (ROOT_VERSION,)
    assert ledger.get(ROOT_VERSION).parent_version_id is None


def test_ledger_three_rounds_lineage_length_four():
    ledger = VersionLedger()
    ledger.record(_root_record())
    parent = ROOT_VERSION
    for r in range(1, 4):
        vid = f"g{r}"
        ledger.record(_child_record(vid, parent, r))
        parent = vid
    parents = [ledger.get(v).parent_version_id for v in ledger.versions()]
    assert parents == [None, "g0", "g1", "g2"]
    assert ledger.versions() == ("g0", "g1", "g2", "g3")


def test_ledger_rejects_duplicates_and_unknown_parent():
    ledger = VersionLedger()
    ledger.record(_root_record())
    with pytest.raises(IntegrityError, match="duplicate"):
        ledger.record(_root_record())
    with pytest.raises(IntegrityError, match="unknown parent"):
        ledger.record(_child_record("g5", "g4", 5))
    ledger.record(_child_record("g1", ROOT_VERSION, 1))
    with pytest.raises(IntegrityError, match="root"):
        ledger.record(
            GlobalVersionRecord(
                version_id="other-root",
                parent_version_id=None,
                params_hash=params_hash(np.ones(2)),
                contributors=(),
                created_at_round=0,
                aggregation_mode=MODE_INIT,
            )
        )


def test_record_field_validation():
    with pytest.raises(ValueError, match="hash"):
        GlobalVersionRecord("g0", None, "nothex", (), 0, MODE_INIT)
    with pytest.raises(ValueError, match="contributor"):
        GlobalVersionRecord("g1", "g0", params_hash(np.ones(2)), (), 1, MODE_FEDAVG)
    with pytest.raises(ValueError, match="contributors"):
        _ = GlobalVersionRecord(
            "g0",
            None,
            params_hash(np.ones(2)),
            (_child_record("gx", "g0", 1).contributors[0],),
            0,
            MODE_INIT,
        )
    with pytest.raises(ValueError, match="aggregation_mode"):
        GlobalVersionRecord("g0", None, params_hash(np.ones(2)), (), 0, "mystery")


def test_ledger_jsonl_round_trip(tmp_path):
    ledger = VersionLedger()
    ledger.record(_root_record())
    ledger.record(_child_record("g1", ROOT_VERSION, 1))
    ledger.record(_child_record("g2", "g1", 2))
    path = tmp_path / "ledger.jsonl"
    ledger.write_jsonl(path)
    loaded = VersionLedger.read_jsonl(path)
    assert loaded.versions() == ledger.versions()
    for vid in ledger.versions():
        assert record_to_json(loaded.get(vid)) == record_to_json(ledger.get(vid))


def test_record_json_round_trip_preserves_detail():
    rec = GlobalVersionRecord(
        version_id="g1",
        parent_version_id="g0",
        params_hash=params_hash(np.arange(3.0)),
        contributors=_child_record("g1", "g0", 1).contributors,
        created_at_round=1,
        aggregation_mode=MODE_FEDAVG,
        detail={"alpha": 0.25, "staleness": 2},
    )
    back = record_from_json(record_to_json(rec))
    assert back == rec
