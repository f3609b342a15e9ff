import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import wire
from fedsim.errors import CorruptMessageError
from fedsim.models import ParameterVector
from fedsim.simnet import (
    EVENT_DELIVER,
    EVENT_TIMER,
    Envelope,
    EventQueue,
    NetConfig,
    byte_size_of,
    send,
)


# ---------------------------------------------------------------------------
# send
# ---------------------------------------------------------------------------


def test_send_no_noise_delivers_at_sent_time():
    cfg = NetConfig(latency_ms_min=0, latency_ms_max=0, dropout_prob=0.0, seed=1)
    env = send(cfg, sender=1, receiver=2, byte_size=100, sent_at=5.0, seq=0)
    assert env.delivered_at == 5.0
    assert not env.dropped


def test_send_near_certain_dropout_drops():
    cfg = NetConfig(dropout_prob=1 - 1e-12, seed=3)
    for seq in range(20):
        env = send(cfg, 1, 2, 64, 0.0, seq)
        assert env.dropped


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


def test_byte_size_dense_params():
    pv = ParameterVector(np.zeros(25))
    assert byte_size_of(pv) == 16 + 8 * 25


def test_byte_size_compressed_example():
    from fedsim.client import compress
    rng = np.random.default_rng(1)
    cu = compress(rng.normal(size=1000), top_k=0.1, bits=8)
    assert byte_size_of(cu) == 16 + 100 * (4 + 1) + 8 == 524


def test_byte_size_recompression_round_trip():
    from fedsim.client import compress, decompress
    rng = np.random.default_rng(2)
    cu = compress(rng.normal(size=300), top_k=0.25, bits=16)
    again = compress(decompress(cu), top_k=0.25, bits=16)
    assert byte_size_of(again) == byte_size_of(cu)


# ---------------------------------------------------------------------------
# wire encoding
# ---------------------------------------------------------------------------


def test_dense_message_round_trip():
    values = np.random.default_rng(5).normal(size=17)
    buf = wire.encode_dense(wire.K_PARAMS, 3, 9, values)
    assert len(buf) == wire.dense_message_size(17)
    kind, rnd, sender, out = wire.decode_dense(buf)
    assert (kind, rnd, sender) == (wire.K_PARAMS, 3, 9)
    assert np.array_equal(out, values)


def test_dense_message_truncation_detected():
    buf = wire.encode_dense(wire.K_PARAMS, 0, 0, np.zeros(4))
    with pytest.raises(CorruptMessageError):
        wire.decode_dense(buf[:-3])


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_sparse_message_round_trip(bits):
    indices = np.array([0, 4, 9])
    codes = np.array([1, (1 << bits) - 1, 3])
    kind = wire.SPARSE_KIND_BY_BITS[bits]
    buf = wire.encode_sparse(kind, 2, 7, indices, codes, bits, 0.5)
    assert len(buf) == wire.sparse_message_size(3, bits)
    _, _, _, idx, cds, b, scale = wire.decode_sparse(buf)
    assert b == bits and scale == 0.5
    assert np.array_equal(idx, indices)
    assert np.array_equal(cds, codes)


def test_fnv_hash_stability():
    # fixed reference value pins the hash function itself
    assert wire.fnv1a64(b"") == 0xCBF29CE484222325
    assert wire.hash_hex(b"a") == f"{wire.fnv1a64(b'a'):016x}"
    # published FNV-1a 64 test vectors
    assert wire.hash_hex(b"a") == "af63dc4c8601ec8c"
    assert wire.hash_hex(b"foobar") == "85944171f73967e8"
    assert wire.params_hash(np.array([1.0, 2.0])) == wire.hash_hex(
        np.array([1.0, 2.0]).astype("<f8").tobytes()
    )


def test_fnv_vectorised_matches_byte_loop():
    cutoff = wire.VECTOR_MIN_BYTES
    rng = np.random.default_rng(3)
    cases = [b""]
    # lengths on both sides of the cutoff, through every uint64 word padding
    cases += [rng.bytes(n) for n in range(cutoff - 9, cutoff + 10)]
    cases += [fill * n for fill in (b"\x00", b"\xff") for n in (cutoff, 3 * cutoff + 5)]
    # 800,000 bytes: many vectorised chunks, ending in a partial one
    cases.append(wire.params_bytes(rng.standard_normal(100_000)))
    for data in cases:
        assert wire.fnv1a64(data) == wire._fnv1a64_loop(data), len(data)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=wire.VECTOR_MIN_BYTES, max_size=4 * wire.VECTOR_MIN_BYTES))
def test_fnv_vectorised_matches_byte_loop_on_random_bytes(data):
    assert wire.fnv1a64(data) == wire._fnv1a64_loop(data)


def test_version_id_round_trip():
    assert wire.parse_version(wire.format_version(17)) == 17
    with pytest.raises(ValueError):
        wire.parse_version("17")
