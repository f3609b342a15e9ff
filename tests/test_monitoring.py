"""Deployment decisions, incentive conservation, and monitor triggers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.errors import ConfigError
from fedsim.models import ArchDescriptor, Dataset, EvalReport, ParameterVector, evaluate
from fedsim.monitoring import (
    ACTION_FINE_TUNE,
    ACTION_NONE,
    DECISION_DEPLOY,
    DECISION_REJECT,
    DeployPolicy,
    MonitorState,
    accrue_incentive,
    decide_deploy,
    evaluate_global,
    monitor_observe,
)

ARCH2 = ArchDescriptor("logistic", 1, 0, 2)


def _report(accuracy, loss):
    return EvalReport(loss=loss, accuracy=accuracy, n_samples=20, per_class_counts=(10, 10))


# ---------------------------------------------------------------------------
# global evaluation
# ---------------------------------------------------------------------------


def test_perfect_separator_scores_one():
    # logits x*w + b with opposite columns: sign of x decides the class
    params = ParameterVector(np.array([-10.0, 10.0, 0.0, 0.0]))
    features = np.array([[1.0], [-1.0], [2.0], [-0.5]])
    labels = np.array([1, 0, 1, 0])
    report = evaluate_global(params, ARCH2, Dataset(features, labels, 2))
    assert report.accuracy == 1.0


def test_zero_params_balanced_two_class_loss_is_ln2():
    params = ParameterVector(np.zeros(4))
    features = np.array([[0.3], [-0.4], [1.2], [-0.8]])
    labels = np.array([0, 1, 0, 1])
    report = evaluate_global(params, ARCH2, Dataset(features, labels, 2))
    assert abs(report.loss - math.log(2.0)) <= 1e-12


def test_evaluate_global_is_same_path_as_model_core():
    rng = np.random.default_rng(2)
    params = ParameterVector(rng.normal(size=4))
    data = Dataset(rng.normal(size=(30, 1)), rng.integers(0, 2, size=30), 2)
    a = evaluate_global(params, ARCH2, data)
    b = evaluate(params, ARCH2, data)
    assert a == b


def test_empty_holdout_rejected():
    empty = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ConfigError, match="holdout"):
        evaluate_global(ParameterVector(np.zeros(4)), ARCH2, empty)


# ---------------------------------------------------------------------------
# deploy decision
# ---------------------------------------------------------------------------


def test_decision_examples():
    policy = DeployPolicy(0.8, 1.0)
    assert decide_deploy(_report(0.9, 0.3), policy).action == DECISION_DEPLOY
    rejected = decide_deploy(_report(0.7, 0.3), policy)
    assert rejected.action == DECISION_REJECT
    assert rejected.reasons == ("accuracy",)


def test_decision_boundaries_inclusive():
    policy = DeployPolicy(0.8, 1.0)
    assert decide_deploy(_report(0.8, 1.0), policy).action == DECISION_DEPLOY


def test_decision_reports_every_failing_dimension():
    policy = DeployPolicy(0.8, 0.5)
    rejected = decide_deploy(_report(0.1, 3.0), policy)
    assert rejected.reasons == ("accuracy", "loss")


def test_policy_validation():
    with pytest.raises(ValueError):
        DeployPolicy(1.5, 1.0)
    with pytest.raises(ValueError):
        DeployPolicy(0.5, 0.0)


# ---------------------------------------------------------------------------
# incentives
# ---------------------------------------------------------------------------


def test_single_contributor_gets_full_rate():
    (row,) = accrue_incentive(0, [(3, 42)], rate_per_round=2.5)
    assert row["client_id"] == 3 and row["amount"] == 2.5
    assert row["share"] == 1.0


def test_shares_split_by_sample_count():
    rows = accrue_incentive(0, [(0, 1), (1, 3)], rate_per_round=4.0)
    assert [row["client_id"] for row in rows] == [0, 1]
    assert rows[0]["amount"] == pytest.approx(1.0, abs=1e-12)
    assert rows[1]["amount"] == pytest.approx(3.0, abs=1e-12)


def test_negative_rate_rejected():
    with pytest.raises(ConfigError, match="rate"):
        accrue_incentive(0, [(0, 1)], rate_per_round=-0.5)


def test_incentive_rows_export():
    rows = accrue_incentive(0, [(2, 5), (1, 5)], rate_per_round=1.0)
    rows += accrue_incentive(1, [(1, 5)], rate_per_round=1.0)
    assert len(rows) == 3
    assert [(row["client_id"], row["round"]) for row in rows] == [(1, 0), (2, 0), (1, 1)]
    assert rows[0] == {
        "client_id": 1, "round": 0, "share": 0.5, "rate": 1.0, "amount": 0.5, "multiplier": 1.0
    }


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_round_credit_is_conserved(seed, count, rate):
    rng = np.random.default_rng(seed)
    contributors = [(int(cid), int(rng.integers(1, 400))) for cid in range(count)]
    rows = accrue_incentive(0, contributors, rate_per_round=rate)
    assert sorted(row["client_id"] for row in rows) == list(range(count))
    issued = sum(row["amount"] for row in rows)
    assert abs(issued - rate) <= 1e-9
    for row in rows:
        assert row["rate"] == rate and row["amount"] == rate * row["share"]


# ---------------------------------------------------------------------------
# monitoring
# ---------------------------------------------------------------------------


def _feed(state, values, start_round=0):
    actions = []
    for i, v in enumerate(values):
        state, action = monitor_observe(state, start_round + i, v)
        actions.append(action)
    return state, actions


def test_healthy_window_never_triggers():
    state = MonitorState(threshold=0.8)
    _, actions = _feed(state, [0.9] * 12)
    assert set(actions) == {ACTION_NONE}


def test_shallow_drop_asks_for_fine_tuning():
    state = MonitorState(threshold=0.8)
    state, actions = _feed(state, [0.75] * 5)
    assert actions[:4] == [ACTION_NONE] * 4  # window not yet full
    assert actions[4] == ACTION_FINE_TUNE
    assert state.last_trigger_round == 4


def test_deep_drop_asks_for_fine_tuning():
    # every trigger asks for fine-tuning, however far the window falls
    state = MonitorState(threshold=0.8)
    state, actions = _feed(state, [0.3] * 5)
    assert actions == [ACTION_NONE] * 4 + [ACTION_FINE_TUNE]
    assert state.last_trigger_round == 4


def test_window_is_bounded():
    state = MonitorState(window_size=3, threshold=0.0)
    state, _ = _feed(state, [0.5] * 10)
    assert len(state.window) == 3


def test_cooldown_spaces_triggers():
    state = MonitorState(threshold=0.9, cooldown_rounds=5)
    state, actions = _feed(state, [0.1] * 40)
    trigger_rounds = [i for i, a in enumerate(actions) if a != ACTION_NONE]
    assert trigger_rounds, "expected at least one trigger"
    gaps = np.diff(trigger_rounds)
    assert np.all(gaps > 5)
    assert trigger_rounds[0] == 4  # first full window


def test_recovery_resets_nothing_but_stops_triggers():
    state = MonitorState(threshold=0.8)
    state, actions = _feed(state, [0.4] * 5 + [0.95] * 10)
    assert actions[4] == ACTION_FINE_TUNE
    assert set(actions[5:]) == {ACTION_NONE}


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 0.95),
    st.integers(1, 6),
    st.integers(0, 6),
)
@settings(max_examples=50, deadline=None)
def test_trigger_hysteresis_property(seed, threshold, window, cooldown):
    rng = np.random.default_rng(seed)
    state = MonitorState(window_size=window, threshold=threshold, cooldown_rounds=cooldown)
    triggers = []
    for r in range(60):
        state, action = monitor_observe(state, r, float(rng.uniform(0, 1)))
        if action != ACTION_NONE:
            triggers.append(r)
    for earlier, later in zip(triggers, triggers[1:]):
        assert later - earlier > cooldown
