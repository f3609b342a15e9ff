"""Lockstep training: every lane of a train_lockstep stack equals its
one-lane local_train and evaluate bit for bit.

The identity rests on numpy running a stacked matmul as one BLAS product
per lane, so CI also runs this file with one BLAS thread.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import models, runner
from fedsim.config import parse_config
from fedsim.errors import DivergenceError
from fedsim.models import (
    ArchDescriptor,
    Dataset,
    Hyperparameters,
    ParameterVector,
    evaluate,
    init_params,
    local_train,
    train_lockstep,
)
from fedsim.runner import ExperimentRunner
from gradcheck import reference_sgd

LOGISTIC = ArchDescriptor("logistic", input_dim=4, hidden_dim=0, num_classes=3)
MLP = ArchDescriptor("mlp", input_dim=4, hidden_dim=5, num_classes=3)


def _data(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(0.0, scale, size=(n, 4)), rng.integers(0, 3, size=n), 3)


def _one_lane(lane, arch, hp):
    """What the one-client path gives for a lane: (vector, report) or
    (DivergenceError, None)."""
    start, seed, train, test = lane
    try:
        trained = local_train(start, arch, train, replace(hp, seed=seed))
    except DivergenceError as e:
        return e, None
    return trained, evaluate(trained, arch, test)


def _one_at_a_time(lanes, arch, hp):
    return [_one_lane(lane, arch, hp) for lane in lanes]


def _assert_same(got, want):
    for (g_vec, g_rep), (w_vec, w_rep) in zip(got, want, strict=True):
        if isinstance(w_vec, DivergenceError):
            assert isinstance(g_vec, DivergenceError)
            assert str(g_vec) == str(w_vec)
            assert g_rep is None
        else:
            assert np.array_equal(g_vec.values, w_vec.values)
            assert g_rep == w_rep


@st.composite
def _shard_and_batch(draw):
    """(train size, batch size): batches of 1, one batch of the whole shard,
    or batches that leave a short trailing batch."""
    kind = draw(st.sampled_from(["single", "whole", "trailing"]))
    if kind == "trailing":
        batch = draw(st.integers(2, 8))
        return batch * draw(st.integers(1, 3)) + draw(st.integers(1, batch - 1)), batch
    n = draw(st.integers(1, 24))
    return n, 1 if kind == "single" else n


@st.composite
def _stack(draw):
    arch = draw(st.sampled_from([LOGISTIC, MLP]))
    n, batch = draw(_shard_and_batch())
    hp = Hyperparameters(
        learning_rate=0.3,
        epochs=draw(st.integers(1, 3)),
        batch_size=batch,
        l2=draw(st.sampled_from([0.0, 0.01])),
        seed=0,
    )
    seed = draw(st.integers(0, 2**32 - 1))
    lanes = []
    for c in range(draw(st.integers(1, 8))):
        lane_seed = seed + 7 * c
        lanes.append(
            (
                init_params(arch, "seeded_uniform", seed=lane_seed),  # a start per lane
                lane_seed,
                _data(n, lane_seed),
                _data(draw(st.sampled_from([0, 1, 5, 8])), lane_seed + 1),
            )
        )
    return arch, lanes, hp


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_stack())
def test_lanes_equal_local_train_evaluate_and_the_fresh_array_reference(case):
    arch, lanes, hp = case
    got = train_lockstep(lanes, arch, hp)
    _assert_same(got, _one_at_a_time(lanes, arch, hp))
    for (vec, _), (start, seed, train, _) in zip(got, lanes):
        assert np.array_equal(vec.values, reference_sgd(start, arch, train, replace(hp, seed=seed)))


def test_stacked_evaluation_equals_evaluate():
    # at learning rate 0 each lane scores its start; lanes with equal test
    # sizes share a stack, and an empty test set is degenerate
    arch = MLP
    rng = np.random.default_rng(3)
    starts = [ParameterVector(v) for v in rng.normal(0.0, 2.0, size=(6, arch.parameter_count))]
    tests = [_data(n, seed) for seed, n in enumerate([12, 0, 12, 3, 12, 1])]
    lanes = [(v, c, _data(8, c + 100), t) for c, (v, t) in enumerate(zip(starts, tests))]
    got = train_lockstep(lanes, arch, Hyperparameters(0.0, 1, 4, 0.0, 0))
    for (vec, report), start, test in zip(got, starts, tests, strict=True):
        assert np.array_equal(vec.values, start.values)
        assert report == evaluate(start, arch, test)


def _divergence_case(arch, scale, params=None, **hp):
    """A diverging lane, with a test set of the size its neighbours' have,
    and its hyperparameters."""
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(0.0, scale, size=(12, 4)), rng.integers(0, 3, size=12), 3)
    if params is None:
        params = init_params(arch, "seeded_uniform", seed=5)
    test = Dataset(data.features[:4], data.labels[:4], 3)
    return (params, 6, data, test), Hyperparameters(epochs=3, batch_size=4, seed=6, **hp)


@pytest.mark.parametrize(
    "case, message, survivors",
    [
        (_divergence_case(LOGISTIC, 10.0, learning_rate=1e307, l2=0.0),
         "non-finite gradient at epoch 1 batch 2", 3),
        # the other lanes' penalties overflow too, one batch later
        (_divergence_case(
            LOGISTIC, 1.0, ParameterVector(np.full(LOGISTIC.parameter_count, 1e152)),
            learning_rate=1e150, l2=0.01),
         "non-finite loss at epoch 1 batch 2", 0),
        (_divergence_case(MLP, 1000.0, learning_rate=1e200, l2=0.0),
         "non-finite parameters at epoch 2 batch 3", 3),
    ],
    ids=["gradient", "loss", "parameters"],
)
def test_a_lane_that_diverges_gets_its_message_and_leaves_the_others_alone(
    case, message, survivors
):
    lane, hp = case
    arch = LOGISTIC if len(lane[0]) == LOGISTIC.parameter_count else MLP
    # the diverging lane sits in one stack between lanes on milder data,
    # each with its own start and seed
    others = [
        (init_params(arch, "seeded_uniform", seed=s), s, _data(12, s), _data(4, s + 1))
        for s in (10, 11, 12)
    ]
    lanes = [others[0], lane, *others[1:]]
    got = train_lockstep(lanes, arch, hp)
    assert str(got[1][0]) == message
    assert got[1][1] is None
    assert sum(not isinstance(vec, DivergenceError) for vec, _ in got) == survivors
    _assert_same(got, _one_at_a_time(lanes, arch, hp))
    # and the survivors train as they do in a stack without it
    alone = train_lockstep([others[0], *others[1:]], arch, hp)
    _assert_same([got[0], *got[2:]], alone)


def test_lanes_group_by_train_size_and_split_at_the_byte_cap(monkeypatch):
    arch = MLP
    hp = Hyperparameters(0.3, 2, 4, 0.0, 0)
    # stacks by (train size, test size): (12, 5) x3, (9, 5) x2, (12, 3), (17, 5)
    sizes = [(12, 5), (9, 5), (12, 5), (12, 3), (9, 5), (17, 5), (12, 5)]
    lanes = [
        (init_params(arch, "seeded_uniform", seed=c), c, _data(n, c), _data(n_test, c + 100))
        for c, (n, n_test) in enumerate(sizes)
    ]
    want = _one_at_a_time(lanes, arch, hp)
    _assert_same(train_lockstep(lanes, arch, hp), want)
    # a cap below one lane's bytes leaves one lane per stack
    monkeypatch.setattr(models, "STACK_BYTES", 1)
    _assert_same(train_lockstep(lanes, arch, hp), want)


@pytest.mark.parametrize(
    "raw",
    [
        {
            "aggregation_mode": "decentralised", "n_clients": 5, "rounds": 3,
            "data": {"partition": {"mode": "quantity_skew", "sigma": 0.6}},
            "arch": {"kind": "mlp", "hidden_dim": 6},
            "init_mode": "seeded_uniform",
        },
        {
            "aggregation_mode": "secure", "n_clients": 6, "rounds": 3,
            "net": {"dropout_prob": 0.0},
            "optional_components": ["heterogeneous_handler"],
            "data": {"noise_sigma": 2.0},
            "gate": {"min_accuracy": 0.7},
        },
        {
            "aggregation_mode": "secure", "n_clients": 5, "rounds": 2,
            "net": {"dropout_prob": 0.0}, "hp": {"learning_rate": 1e308},
        },
    ],
    ids=["gossip-quantity-skew", "secure-gated-balanced", "secure-diverging"],
)
def test_lockstep_rounds_log_what_one_client_at_a_time_logs(monkeypatch, raw):
    def run(lockstep):
        if not lockstep:
            monkeypatch.setattr(runner, "train_lockstep", _one_at_a_time)
        r = ExperimentRunner(parse_config({**raw, "seed": 3}))
        try:
            r.run()
        except DivergenceError as e:
            r.events.append({"raised": str(e)})
        return r.events

    assert run(True) == run(False)


def test_a_stack_stops_once_every_lane_has_diverged(monkeypatch):
    calls = []
    kernel = models._sgd_kernel

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(models, "_sgd_kernel", counted)
    (start, _, data, test), hp = _divergence_case(LOGISTIC, 10.0, learning_rate=1e307, l2=0.0)
    lanes = [(start, s, data, test) for s in (6, 7, 8)]
    got = train_lockstep(lanes, LOGISTIC, hp)
    assert [str(err) for err, _ in got] == ["non-finite gradient at epoch 1 batch 2"] * 3
    # 3 epochs of 3 batches, cut after the second
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(DivergenceError, match="at epoch 1 batch 2"):
        local_train(start, LOGISTIC, data, hp)
    assert len(calls) == 2


def test_multitask_heads_of_lockstep_rounds_own_their_memory():
    # a head sliced from the trained vector would keep the round's whole
    # (C, P) stack alive until its client trains again
    r = ExperimentRunner(parse_config({
        "aggregation_mode": "secure", "n_clients": 200, "fraction_per_round": 0.1,
        "rounds": 12, "init_mode": "seeded_uniform", "seed": 1,
        "arch": {"kind": "mlp", "input_dim": 32, "hidden_dim": 64, "num_classes": 10},
        "net": {"dropout_prob": 0.0}, "optional_components": ["multitask"],
    }))
    r.run()
    heads = [rt.head for rt in r.runtimes.values() if rt.head is not None]
    assert heads
    assert all(head.base is None for head in heads)
