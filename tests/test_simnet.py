import numpy as np
import pytest

from fedsim import wire
from fedsim.client import (
    CompressedUpdate,
    build_envelope,
    compress,
    decode_payload_body,
    decompress,
    encode_payload_body,
)
from fedsim.errors import CorruptMessageError
from fedsim.models import EvalReport, ParameterVector
from fedsim.simnet import (
    EVENT_DELIVER,
    EVENT_TIMER,
    EventQueue,
    NetConfig,
    send,
)


# ---------------------------------------------------------------------------
# send
# ---------------------------------------------------------------------------


def test_send_no_noise_delivers_at_sent_time():
    cfg = NetConfig(latency_ms_min=0, latency_ms_max=0, dropout_prob=0.0, seed=1)
    env = send(cfg, sender=1, receiver=2, byte_size=100, sent_at=5.0, seq=0)
    assert env.delivered_at == 5.0
    assert env.delivered_at is not None


def test_send_near_certain_dropout_drops():
    cfg = NetConfig(dropout_prob=1 - 1e-12, seed=3)
    for seq in range(20):
        env = send(cfg, 1, 2, 64, 0.0, seq)
        assert env.delivered_at is None


def test_send_bandwidth_arithmetic():
    cfg = NetConfig(
        latency_ms_min=0, latency_ms_max=0, dropout_prob=0.0,
        bandwidth_bytes_per_s=1000.0, seed=0,
    )
    env = send(cfg, 0, 1, 500, 2.0, seq=7)
    assert env.delivered_at == 2.5


def test_send_latency_within_bounds_and_deterministic():
    cfg = NetConfig(latency_ms_min=10, latency_ms_max=100, dropout_prob=0.0, seed=11)
    a = send(cfg, 4, 5, 256, 1.0, seq=9)
    b = send(cfg, 4, 5, 256, 1.0, seq=9)
    assert a.delivered_at == b.delivered_at
    assert 1.0 + 0.010 <= a.delivered_at <= 1.0 + 0.100
    c = send(cfg, 4, 5, 256, 1.0, seq=10)
    assert c.delivered_at != a.delivered_at


def test_send_rejects_zero_bytes():
    with pytest.raises(ValueError):
        send(NetConfig(), 0, 1, 0, 0.0, 0)


def test_net_config_validation():
    with pytest.raises(ValueError):
        NetConfig(latency_ms_min=5, latency_ms_max=1)
    with pytest.raises(ValueError):
        NetConfig(dropout_prob=1.0)
    with pytest.raises(ValueError):
        NetConfig(bandwidth_bytes_per_s=0.0)


# ---------------------------------------------------------------------------
# event queue
# ---------------------------------------------------------------------------


def test_queue_tie_breaks_by_issue_order():
    q = EventQueue()
    for _ in range(5):
        q.schedule(1.0, EVENT_TIMER)
    e5 = q.schedule(1.0, EVENT_TIMER)
    q.schedule(1.0, EVENT_TIMER)
    assert e5.seq == 5
    seqs = [q.pop().seq for _ in range(7)]
    assert seqs == sorted(seqs)


def test_queue_empty_returns_none():
    assert EventQueue().pop() is None


def test_queue_interleaved_pop_returns_current_minimum():
    q = EventQueue()
    rng = np.random.default_rng(0)
    pending = []
    for i, t in enumerate(rng.uniform(0, 10, size=50)):
        q.schedule(float(t), EVENT_DELIVER, payload=i)
        pending.append((float(t), i))
        if i % 3 == 0:
            ev = q.pop()
            pending.sort()
            assert (ev.time_s, ev.payload) == pending.pop(0)
    pending.sort()
    while pending:
        ev = q.pop()
        assert (ev.time_s, ev.payload) == pending.pop(0)
    assert q.pop() is None


def test_queue_thousand_event_fuzz_matches_sort_oracle():
    q = EventQueue()
    rng = np.random.default_rng(42)
    times = rng.integers(0, 50, size=1000).astype(float)  # many ties
    expected = []
    for i, t in enumerate(times):
        q.schedule(float(t), EVENT_DELIVER, payload=i)
        expected.append((float(t), i))
    drained = []
    while (ev := q.pop()) is not None:
        drained.append((ev.time_s, ev.seq))
    assert drained == sorted(expected)


def test_queue_rejects_bad_events():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule(float("nan"), EVENT_TIMER)
    with pytest.raises(ValueError):
        q.schedule(0.0, "party")


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------


# an update envelope's fixed part: header, base version u32, n_samples u32 and
# an evaluation block of 28 + 4 * 2 bytes for two classes
_ENVELOPE_OVERHEAD = 16 + 4 + 4 + 36


def _update_size(kind, payload):
    report = EvalReport(0.5, 0.5, 10, (5, 5))
    return build_envelope(1, 2, "g1", 10, kind, payload, report).byte_size


def test_byte_size_dense_params():
    pv = ParameterVector(np.zeros(25))
    assert wire.dense_message_size(25) == 16 + 8 * 25
    assert _update_size(wire.K_UPDATE_DENSE, pv) == _ENVELOPE_OVERHEAD + 8 * 25


def test_byte_size_compressed_example():
    rng = np.random.default_rng(1)
    cu = compress(rng.normal(size=1000), top_k=0.1, bits=8)
    assert _update_size(wire.K_UPDATE_SPARSE8, cu) == _ENVELOPE_OVERHEAD + 100 * (4 + 1) + 8 == 568


def test_byte_size_recompression_round_trip():
    rng = np.random.default_rng(2)
    cu = compress(rng.normal(size=300), top_k=0.25, bits=16)
    again = compress(decompress(cu), top_k=0.25, bits=16)
    assert _update_size(wire.K_UPDATE_SPARSE16, again) == _update_size(wire.K_UPDATE_SPARSE16, cu)


# ---------------------------------------------------------------------------
# payload bodies
# ---------------------------------------------------------------------------


def test_dense_message_round_trip():
    values = np.random.default_rng(5).normal(size=17)
    buf = encode_payload_body(ParameterVector(values))
    assert wire.HEADER_SIZE + len(buf) == wire.dense_message_size(17)
    out = decode_payload_body(wire.K_UPDATE_DENSE, buf)
    assert np.array_equal(out.values, values)


def test_dense_message_truncation_detected():
    buf = encode_payload_body(ParameterVector(np.zeros(4)))
    with pytest.raises(CorruptMessageError):
        decode_payload_body(wire.K_UPDATE_DENSE, buf[:-3])


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_sparse_message_round_trip(bits):
    indices = np.array([0, 4, 9])
    codes = np.array([1, (1 << bits) - 1, 3])
    cu = CompressedUpdate(d=10, indices=indices, codes=codes, bits=bits, scale=0.5)
    buf = encode_payload_body(cu)
    assert len(buf) == 3 * (4 + wire.code_width(bits)) + 8
    back = decode_payload_body(wire.UPDATE_SPARSE_KIND_BY_BITS[bits], buf)
    assert back.bits == bits and back.scale == 0.5
    assert np.array_equal(back.indices, indices)
    assert np.array_equal(back.codes, codes)


def test_fnv_hash_stability():
    # seeds and the run id: published FNV-1a 64 test vectors
    assert wire.fnv1a64(b"") == 0xCBF29CE484222325
    assert wire.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert wire.fnv1a64(b"foobar") == 0x85944171F73967E8
    # content hashes: BLAKE2b with an 8-byte digest, pinned by a fixed value
    assert wire.CONTENT_HASH == "blake2b-64"
    assert wire.content_hash(b"abc") == "d8bb14d833d59559"
    assert wire.params_hash(np.array([1.0, 2.0])) == wire.content_hash(
        np.array([1.0, 2.0]).astype("<f8").tobytes()
    )


def test_version_id_round_trip():
    assert wire.format_version(17) == "g17"
