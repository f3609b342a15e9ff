"""Post-training stages: global evaluation, deploy decision, incentives, monitoring.

The monitor watches a sliding window of deployed accuracy and feeds a
retraining action back to the round loop once it degrades.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .models import ArchDescriptor, Dataset, EvalReport, ParameterVector, evaluate, seq_sum

DECISION_DEPLOY = "deploy"
DECISION_REJECT = "reject"

ACTION_NONE = "none"
ACTION_FINE_TUNE = "fine_tune"

DEFAULT_WINDOW = 5
DEFAULT_COOLDOWN = 5


# ---------------------------------------------------------------------------
# evaluation and the deploy decision
# ---------------------------------------------------------------------------


def evaluate_global(
    params: ParameterVector, arch: ArchDescriptor, holdout: Dataset
) -> EvalReport:
    """Score the global model on the shared holdout sample.

    Delegates to the model-core evaluator so the number recorded here
    is bitwise the number any client would compute on the same data.
    """
    if len(holdout) == 0:
        raise ConfigError("global holdout is empty")
    return evaluate(params, arch, holdout)


@dataclass(frozen=True)
class DeployPolicy:
    min_global_accuracy: float
    max_global_loss: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_global_accuracy <= 1.0:
            raise ValueError("min_global_accuracy must lie in [0, 1]")
        if not self.max_global_loss > 0.0:
            raise ValueError("max_global_loss must be positive")


@dataclass(frozen=True)
class DeployDecision:
    action: str
    reasons: tuple[str, ...]  # failing dimensions, empty on deploy


def decide_deploy(report: EvalReport, policy: DeployPolicy) -> DeployDecision:
    """Deploy when accuracy and loss both meet the policy, bounds inclusive."""
    reasons = []
    if report.accuracy < policy.min_global_accuracy:
        reasons.append("accuracy")
    if report.loss > policy.max_global_loss:
        reasons.append("loss")
    if reasons:
        return DeployDecision(DECISION_REJECT, tuple(reasons))
    return DeployDecision(DECISION_DEPLOY, ())


# ---------------------------------------------------------------------------
# incentives
# ---------------------------------------------------------------------------


def accrue_incentive(
    round_index: int, contributors: list[tuple[int, int]], rate_per_round: float
) -> list[dict]:
    """Split one round's credit among contributors by sample share: one
    incentives.jsonl row per contributor, in ascending client id."""
    if rate_per_round < 0.0:
        raise ConfigError("incentive rate must be >= 0")
    if not contributors:
        raise ValueError("no contributors to credit")
    total = sum(n for _, n in contributors)
    if total <= 0:
        raise ValueError("contributor sample counts must be positive")
    rows = []
    for client_id, n in sorted(contributors):
        share = n / total
        rows.append(
            {
                "client_id": client_id,
                "round": round_index,
                "share": share,
                "rate": rate_per_round,
                "amount": rate_per_round * share,
                "multiplier": 1.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitorState:
    """Sliding window over deployed-model accuracy with trigger hysteresis."""

    window_size: int = DEFAULT_WINDOW
    threshold: float = 0.0
    cooldown_rounds: int = DEFAULT_COOLDOWN
    window: tuple[float, ...] = ()
    last_trigger_round: int | None = None

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.cooldown_rounds < 0:
            raise ValueError("cooldown_rounds must be >= 0")
        if len(self.window) > self.window_size:
            raise ValueError("window overfull")


def monitor_observe(
    state: MonitorState, round_index: int, deployed_accuracy: float
) -> tuple[MonitorState, str]:
    """Push one accuracy sample and decide whether to raise a trigger.

    Fires only on a full window whose mean falls below the threshold,
    and not again until the cooldown has passed. A trigger asks for
    fine-tuning: the next round selects every active client.
    """
    window = (state.window + (float(deployed_accuracy),))[-state.window_size :]
    action = ACTION_NONE
    last = state.last_trigger_round
    if len(window) == state.window_size:
        mean = seq_sum(window) / state.window_size
        quiet = last is None or (round_index - last) > state.cooldown_rounds
        if mean < state.threshold and quiet:
            action = ACTION_FINE_TUNE
            last = round_index
    new_state = MonitorState(
        window_size=state.window_size,
        threshold=state.threshold,
        cooldown_rounds=state.cooldown_rounds,
        window=window,
        last_trigger_round=last,
    )
    return new_state, action
