import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import wire
from fedsim.client import (
    ClientRuntime,
    CompressedUpdate,
    CompressionSpec,
    GatePolicy,
    ModelPackage,
    Withheld,
    round_train_seed,
    _top_k_indices,
    build_envelope,
    compress,
    decode_payload_body,
    decompress,
    encode_payload_body,
    upload_gate,
)
from fedsim.data import PartitionSpec, SyntheticSpec, partition
from fedsim.errors import CorruptMessageError, DivergenceError
from fedsim.models import (
    ArchDescriptor,
    EvalReport,
    Hyperparameters,
    ParameterVector,
    evaluate,
    init_params,
    local_train,
)

SS = SyntheticSpec(
    num_classes=2, input_dim=5, class_mean_scale=2.0, noise_sigma=0.5,
    samples_per_client=80, seed=3,
)
ARCH = ArchDescriptor("logistic", 5, 0, 2)
MLP = ArchDescriptor("mlp", 5, 4, 2)
HP = Hyperparameters(learning_rate=0.2, epochs=2, batch_size=16, l2=0.0, seed=9)


def _shard(client_id=0):
    return partition(PartitionSpec("iid", seed=1), SS, client_id + 1)[client_id]


def _pkg(arch=ARCH, hp=HP, version="g0"):
    return ModelPackage(version, init_params(arch, "zeros"), arch, hp)


# ---------------------------------------------------------------------------
# upload gate
# ---------------------------------------------------------------------------


def test_gate_boundary_is_inclusive():
    report = EvalReport(1.0, 0.8, 10, (5, 5))
    assert upload_gate(report, GatePolicy(min_accuracy=0.8))


def test_gate_infinite_loss_withholds():
    report = EvalReport(math.inf, 1.0, 10, (5, 5))
    assert not upload_gate(report, GatePolicy(min_accuracy=0.5, max_loss=2.0))


def test_gate_passes_inside_both_bounds():
    report = EvalReport(1.0, 0.6, 10, (5, 5))
    assert upload_gate(report, GatePolicy(min_accuracy=0.5, max_loss=2.0))


def test_gate_defaults_are_off():
    report = EvalReport(math.inf, 0.0, 1, (1, 0))
    assert upload_gate(report, GatePolicy())


# ---------------------------------------------------------------------------
# handle_broadcast
# ---------------------------------------------------------------------------


def test_open_gate_always_uploads():
    rt = ClientRuntime(0, _shard(), gate=GatePolicy(min_accuracy=0.0))
    out = rt.handle_broadcast(_pkg(), round_index=1)
    assert not isinstance(out, Withheld)
    assert out.n_samples == len(rt.shard.train)
    assert out.base_version_id == "g0"


def test_unattainable_gate_always_withholds():
    rt = ClientRuntime(0, _shard(), gate=GatePolicy(min_accuracy=1.01))
    out = rt.handle_broadcast(_pkg(), round_index=1)
    assert isinstance(out, Withheld)
    assert out.reason == "below-threshold"


def test_handle_broadcast_matches_composed_ops():
    shard = _shard()
    spec = CompressionSpec(top_k=0.5, bits=8)
    rt = ClientRuntime(0, shard, compression=spec)
    pkg = _pkg()
    env = rt.handle_broadcast(pkg, round_index=2)

    # independent composition of the public single-step operations
    hp = replace(pkg.hp, seed=round_train_seed(pkg.hp.seed, 0, 2))
    trained = local_train(pkg.params, pkg.arch, shard.train, hp)
    report = evaluate(trained, pkg.arch, shard.test)
    assert upload_gate(report, GatePolicy())
    cu = compress(trained.values - pkg.params.values, spec.top_k, spec.bits)
    expect = build_envelope(0, 2, "g0", len(shard.train), wire.K_UPDATE_SPARSE8, cu, report)

    assert env.local_eval == expect.local_eval
    assert env.byte_size == expect.byte_size
    assert np.array_equal(env.payload.indices, expect.payload.indices)
    assert np.array_equal(env.payload.codes, expect.payload.codes)
    assert env.payload.scale == expect.payload.scale


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------


def test_compress_quantizer_bound_bits16():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=200)
    cu = compress(x, top_k=1.0, bits=16)
    back = decompress(cu)
    assert np.max(np.abs(back - x)) <= 2 / (2**16 - 1)


def test_compress_magnitude_order_with_ties_to_lower_index():
    cu = compress(np.array([0.9, -0.1, 0.5, 0.05]), top_k=0.5, bits=8)
    assert cu.indices.tolist() == [0, 2]
    tied = compress(np.array([0.5, -0.5, 0.5, -0.5]), top_k=0.5, bits=8)
    assert tied.indices.tolist() == [0, 1]


def test_compress_all_zero_keeps_empty_semantics():
    cu = compress(np.zeros(10), top_k=0.3, bits=4)
    assert cu.scale == 0.0
    assert np.array_equal(decompress(cu), np.zeros(10))


def test_compress_range_past_float64_is_divergence():
    with pytest.raises(DivergenceError, match="compression range"):
        compress(np.array([1e308, -1.5e308, 0.0]), top_k=1.0, bits=8)


def _stable_sort_top_k(v, k):
    """The selection compress made before it partitioned: the first k of a
    stable sort by -|v|, in ascending index order."""
    return np.sort(np.argsort(-np.abs(v), kind="stable")[:k])


TOP_K_CASES = {
    "ties": np.array([0.5, -0.5, 0.25, 0.5, -0.25, 0.5, 0.0, -0.5]),
    "all-zero": np.zeros(9),
    "signed-zeros": np.array([0.0, -0.0, 0.0, -0.0, 1.0]),
    "single": np.array([-3.0]),
    "plus-minus-inf": np.array([1.0, -np.inf, 2.0, np.inf, -np.inf, 2.0, 0.0]),
    "nan": np.array([np.nan, 1.0, -1.0, np.nan, 0.0]),
}


@pytest.mark.parametrize("name", sorted(TOP_K_CASES))
def test_top_k_selection_matches_the_stable_sort_for_every_k(name):
    v = TOP_K_CASES[name]
    for k in range(1, len(v) + 1):
        got = _top_k_indices(v, k)
        want = _stable_sort_top_k(v, k)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist(), k


@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, -1.0, 3.0, np.inf]), min_size=1, max_size=40
    ),
    st.floats(min_value=0.001, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_compress_keeps_the_stable_sort_selection(entries, top_k):
    v = np.array(entries)
    k = min(len(v), math.ceil(top_k * len(v)))
    want = _stable_sort_top_k(v, k)
    if np.isinf(v[want]).any():
        with pytest.raises(DivergenceError, match="compression range 2 \\* inf"):
            compress(v, top_k=top_k, bits=8)
    else:
        assert compress(v, top_k=top_k, bits=8).indices.tolist() == want.tolist()


def test_compress_short_vector_keeps_at_least_one():
    cu = compress(np.array([3.0]), top_k=0.01, bits=8)
    assert len(cu.indices) == 1


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_compress_reconstruction_bound(bits):
    rng = np.random.default_rng(bits)
    for _ in range(30):
        x = rng.normal(size=1000)
        cu = compress(x, top_k=0.1, bits=bits)
        back = decompress(cu)
        topk = np.zeros_like(x)
        topk[cu.indices] = x[cu.indices]
        assert np.max(np.abs(back - topk)[cu.indices]) <= cu.scale / (2**bits - 1)


def test_decompress_empty_indices_is_zero_vector():
    cu = CompressedUpdate(
        d=6, indices=np.array([], dtype=np.int64), codes=np.array([], dtype=np.int64),
        bits=8, scale=0.0,
    )
    assert np.array_equal(decompress(cu), np.zeros(6))


def test_decompress_index_out_of_range_rejected():
    cu = compress(np.arange(1.0, 11.0), top_k=1.0, bits=8)
    with pytest.raises(CorruptMessageError):
        decompress(cu, d=5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bits=st.sampled_from([4, 8, 16]))
def test_compress_is_right_inverse_on_code_domain(seed, bits):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=50)
    cu = compress(x, top_k=0.2, bits=bits)
    again = compress(decompress(cu), top_k=0.2, bits=bits)
    assert np.array_equal(again.indices, cu.indices)


def test_compression_bytes_monotone():
    def size(kind, payload):
        return build_envelope(0, 1, "g0", 5, kind, payload, _report()).byte_size

    rng = np.random.default_rng(9)
    x = rng.normal(size=400)
    sizes_by_topk = [size(wire.K_UPDATE_SPARSE8, compress(x, tk, 8)) for tk in (0.1, 0.5, 1.0)]
    assert sizes_by_topk == sorted(sizes_by_topk)
    sizes_by_bits = [
        size(wire.UPDATE_SPARSE_KIND_BY_BITS[b], compress(x, 0.5, b)) for b in (4, 8, 16)
    ]
    assert sizes_by_bits == sorted(sizes_by_bits)
    dense = size(wire.K_UPDATE_DENSE, ParameterVector(x))
    assert all(s < dense for s in sizes_by_bits)


def test_compression_spec_validation():
    with pytest.raises(ValueError):
        CompressionSpec(0.0, 8)
    with pytest.raises(ValueError):
        CompressionSpec(0.5, 12)


# ---------------------------------------------------------------------------
# personalization
# ---------------------------------------------------------------------------


def _mlp_pkg():
    return ModelPackage("g0", init_params(MLP, "seeded_uniform", seed=2), MLP,
                        Hyperparameters(0.1, 1, 16, 0.0, 5))


def test_personalize_zero_rate_is_identity():
    pkg = _mlp_pkg()
    pkg = replace(pkg, hp=replace(pkg.hp, learning_rate=0.0))
    rt = ClientRuntime(0, _shard(), body_len=MLP.shared_parameter_count)
    env = rt.handle_broadcast(pkg, round_index=1)
    cut = MLP.shared_parameter_count
    assert np.array_equal(env.payload.values, pkg.params.values[:cut])
    assert np.array_equal(rt.head, pkg.params.values[cut:])


def test_multitask_envelope_contains_exactly_shared_len_values():
    rt = ClientRuntime(0, _shard(), body_len=MLP.shared_parameter_count)
    env = rt.handle_broadcast(_mlp_pkg(), round_index=1)
    assert not isinstance(env, Withheld)
    assert len(env.payload) == MLP.shared_parameter_count
    assert len(_reference_envelope(env)) == env.byte_size
    assert len(_body_round_trip(env)) == MLP.shared_parameter_count


def test_private_head_never_serializes():
    rt = ClientRuntime(0, _shard(), body_len=MLP.shared_parameter_count)
    pkg = _mlp_pkg()
    env = rt.handle_broadcast(pkg, round_index=1)
    for buf in (encode_payload_body(env.payload), _reference_envelope(env)):
        for value in rt.head:
            assert np.float64(value).tobytes() not in buf


def test_personal_params_assembles_body_and_head():
    # the second round trains the new broadcast body joined to the client's
    # own head, not to the broadcast head
    pkg = _mlp_pkg()
    cut = MLP.shared_parameter_count
    rt = ClientRuntime(0, _shard(), body_len=MLP.shared_parameter_count)
    rt.handle_broadcast(pkg, round_index=1)
    own_head = rt.head
    assert not np.array_equal(own_head, pkg.params.values[cut:])
    second = replace(pkg, version_id="g1", params=ParameterVector(pkg.params.values * 0.5))
    env = rt.handle_broadcast(second, round_index=2)
    hp = replace(second.hp, seed=round_train_seed(second.hp.seed, 0, 2))
    start = ParameterVector(np.concatenate([second.params.values[:cut], own_head]))
    trained = local_train(start, MLP, rt.shard.train, hp)
    assert np.array_equal(env.payload.values, trained.values[:cut])
    assert np.array_equal(rt.head, trained.values[cut:])
    assert env.local_eval == evaluate(trained, MLP, rt.shard.test)


# ---------------------------------------------------------------------------
# envelope sizes and payload bodies
# ---------------------------------------------------------------------------


def _report():
    return EvalReport(0.25, 0.875, 16, (9, 7))


def _reference_envelope(env):
    """Reference encoder of a whole update envelope, which the program never
    builds: header | base u32 | n_samples u32 | eval block | payload body."""
    payload, ev = env.payload, env.local_eval
    count = len(payload) if isinstance(payload, ParameterVector) else len(payload.indices)
    k = len(ev.per_class_counts)
    base = int(env.base_version_id.removeprefix("g"))
    head = struct.pack("<6I", env.update_kind, env.round_index, env.client_id, count,
                       base, env.n_samples)
    evb = struct.pack(f"<ddIII{k}I", ev.loss, ev.accuracy, ev.n_samples, k,
                      int(ev.degenerate), *ev.per_class_counts)
    return head + evb + encode_payload_body(payload)


def _body_round_trip(env):
    return decode_payload_body(env.update_kind, encode_payload_body(env.payload))


def test_envelope_dense_round_trip():
    payload = ParameterVector(np.random.default_rng(0).normal(size=12))
    env = build_envelope(3, 5, "g4", 40, wire.K_UPDATE_DENSE, payload, _report())
    assert len(_reference_envelope(env)) == env.byte_size
    back = _body_round_trip(env)
    assert np.array_equal(back.values, payload.values)


def test_envelope_masked_round_trip():
    payload = ParameterVector(np.array([1.5, -2.5, 3.5]))
    env = build_envelope(1, 2, "g1", 10, wire.K_UPDATE_MASKED, payload, _report())
    assert len(_reference_envelope(env)) == env.byte_size
    back = _body_round_trip(env)
    assert np.array_equal(back.values, payload.values)


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_envelope_compressed_round_trip(bits):
    x = np.random.default_rng(7).normal(size=30)
    cu = compress(x, top_k=0.3, bits=bits)
    env = build_envelope(2, 9, "g8", 25, wire.UPDATE_SPARSE_KIND_BY_BITS[bits], cu, _report())
    assert len(_reference_envelope(env)) == env.byte_size
    back = _body_round_trip(env)
    assert back.bits == bits
    assert np.array_equal(back.indices, cu.indices)
    assert np.array_equal(back.codes, cu.codes)
    assert back.scale == cu.scale
    assert np.array_equal(decompress(back, d=30), decompress(cu))


def test_envelope_truncation_detected():
    payload = ParameterVector(np.zeros(4))
    env = build_envelope(0, 1, "g0", 5, wire.K_UPDATE_DENSE, payload, _report())
    with pytest.raises(CorruptMessageError):
        decode_payload_body(env.update_kind, encode_payload_body(payload)[:-1])


@pytest.mark.parametrize(
    "kind, payload",
    [
        (wire.K_UPDATE_DENSE, compress(np.arange(1.0, 9.0), top_k=0.5, bits=8)),
        (wire.K_UPDATE_SPARSE8, compress(np.arange(1.0, 9.0), top_k=0.5, bits=4)),
        (wire.K_UPDATE_MASKED, compress(np.arange(1.0, 9.0), top_k=0.5, bits=8)),
    ],
    ids=["dense-kind-sparse-payload", "sparse8-kind-4-bit-payload", "masked-kind-sparse-payload"],
)
def test_envelope_rejects_payload_of_another_kind(kind, payload):
    with pytest.raises(ValueError, match="payload must be|bit width"):
        build_envelope(0, 1, "g0", 5, kind, payload, _report())


def test_feature_sentinels_never_reach_the_wire():
    # plant recognizable feature values in the shard; they must not appear in
    # any serialized traffic
    shard = _shard()
    sentinel = 777.125
    feats = shard.train.features.copy()
    feats[0, :] = sentinel
    from fedsim.models import Dataset
    from dataclasses import replace as dc_replace
    train = Dataset(feats, shard.train.labels, 2)
    planted = dc_replace(shard, train=train)
    rt = ClientRuntime(0, planted, gate=GatePolicy())
    env = rt.handle_broadcast(_pkg(), round_index=1)
    for buf in (encode_payload_body(env.payload), _reference_envelope(env)):
        assert np.float64(sentinel).tobytes() not in buf


def test_payload_body_round_trip_dense():
    from fedsim import wire
    from fedsim.client import decode_payload_body, encode_payload_body

    pv = ParameterVector([1.5, -2.25, 0.0, 3.125])
    buf = encode_payload_body(pv)
    back = decode_payload_body(wire.K_UPDATE_DENSE, buf)
    assert back.values.tobytes() == pv.values.tobytes()


def test_payload_body_round_trip_sparse():
    from fedsim.client import decode_payload_body, encode_payload_body

    cu = compress(np.array([0.0, 5.0, -3.0, 0.5]), top_k=0.5, bits=8)
    env = build_envelope(0, 1, "g0", 5, wire.K_UPDATE_SPARSE8, cu, _report())
    buf = encode_payload_body(cu)
    back = decode_payload_body(env.update_kind, buf)
    assert np.array_equal(back.indices, cu.indices)
    assert np.array_equal(back.codes, cu.codes)
    assert back.scale == cu.scale
    assert back.bits == cu.bits


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_empty_sparse_envelope_decodes_like_its_payload_body(bits):
    empty = CompressedUpdate(d=1, indices=[], codes=[], bits=bits, scale=0.0)
    env = build_envelope(2, 3, "g1", 5, wire.UPDATE_SPARSE_KIND_BY_BITS[bits], empty, _report())
    assert len(_reference_envelope(env)) == env.byte_size
    body = _body_round_trip(env)
    assert body.d == 1
    assert len(body.indices) == 0


def _struct_sparse_body(indices, codes, bits, scale):
    """Reference sparse codec: one struct entry per (index, code)."""
    entry = struct.Struct("<IB" if bits <= 8 else "<IH")
    body = b"".join(entry.pack(int(i), int(c)) for i, c in zip(indices, codes))
    return body + struct.pack("<d", scale)


@pytest.mark.parametrize("bits", [4, 8, 16])
@pytest.mark.parametrize("count", [0, 1, 40])
def test_sparse_codec_matches_struct_reference(bits, count):
    rng = np.random.default_rng([bits, count])
    field_max = 0xFF if bits <= 8 else 0xFFFF
    indices = np.unique(rng.integers(0, 2**32 - 1, size=count))
    codes = rng.integers(0, field_max + 1, size=len(indices))
    if count:
        # the widest value each field holds
        indices[-1], codes[-1] = 2**32 - 1, field_max
    ref = _struct_sparse_body(indices, codes, bits, 0.375)
    assert wire.encode_sparse_body(indices, codes, bits, 0.375) == ref
    idx, cds, scale = wire.decode_sparse_body(ref, bits)
    assert idx.tolist() == [int(i) for i in indices]
    assert cds.tolist() == [int(c) for c in codes]
    assert scale == 0.375
    with pytest.raises(CorruptMessageError):
        wire.decode_sparse_body(ref[:-1], bits)


@pytest.mark.parametrize(
    "bits,index,code",
    [(8, 2**32, 0), (8, -1, 0), (4, 0, 0x100), (8, 0, 0x100), (16, 0, 0x10000), (16, 0, -1)],
)
def test_sparse_codec_rejects_values_wider_than_their_field(bits, index, code):
    with pytest.raises(struct.error):
        _struct_sparse_body([index], [code], bits, 0.0)
    with pytest.raises(ValueError, match="field"):
        wire.encode_sparse_body([index], [code], bits, 0.0)
