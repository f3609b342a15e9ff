"""Experiment configuration: strict JSON schema, defaults, run identity.

Every run is a pure function of this file plus a seed, so validation is
deliberately unforgiving: unknown keys fail fast with their full path,
and cross-field conflicts are collected and reported together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .client import CompressionSpec, GatePolicy
from .data import PartitionSpec, SyntheticSpec
from .errors import ConfigError
from .models import ArchDescriptor, Hyperparameters
from .monitoring import DEFAULT_BAND, DEFAULT_COOLDOWN, DEFAULT_WINDOW, DeployPolicy
from .orchestrator import SELECTION_STRATEGIES, STRATEGY_TOP_ACCURACY, SelectionCriteria
from .simnet import NetConfig

MODE_FEDAVG = "fedavg"
MODE_SECURE = "secure"
MODE_ASYNC = "async"
MODE_HIERARCHICAL = "hierarchical"
MODE_DECENTRALISED = "decentralised"
AGGREGATION_MODES = (
    MODE_FEDAVG,
    MODE_SECURE,
    MODE_ASYNC,
    MODE_HIERARCHICAL,
    MODE_DECENTRALISED,
)

FLAG_REGISTRY = "registry"
FLAG_CLUSTER = "cluster"
FLAG_SELECTOR = "selector"
FLAG_COMPRESSOR = "compressor"
FLAG_MULTITASK = "multitask"
FLAG_CO_VERSIONING = "co_versioning"
FLAG_INCENTIVES = "incentives"
FLAG_DEPLOYMENT_SELECTOR = "deployment_selector"
FLAG_MONITOR = "monitor"
FLAG_HETEROGENEOUS = "heterogeneous_handler"
ALL_FLAGS = (
    FLAG_REGISTRY,
    FLAG_CLUSTER,
    FLAG_SELECTOR,
    FLAG_COMPRESSOR,
    FLAG_MULTITASK,
    FLAG_CO_VERSIONING,
    FLAG_INCENTIVES,
    FLAG_DEPLOYMENT_SELECTOR,
    FLAG_MONITOR,
    FLAG_HETEROGENEOUS,
)

FEATURES_LABELS = "label_distribution"
FEATURES_UPDATE = "update_direction"

_MAX_SEED = 1 << 64


# ---------------------------------------------------------------------------
# primitive readers (reject rather than coerce)
# ---------------------------------------------------------------------------


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


def _reject_unknown(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {where}")


def _as_int(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}")
    return value


def _as_float(value, path: str, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    if maximum is not None and out > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}")
    return out


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: must be one of {list(choices)}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# the assembled configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    canonical: dict
    run_id: str
    arch: ArchDescriptor
    hp: Hyperparameters
    rounds: int
    fraction: float
    aggregation_mode: str
    secure_masking: bool
    init_mode: str
    n_clients: int
    seed: int
    flags: frozenset[str]
    selection: SelectionCriteria
    synthetic: SyntheticSpec
    partition_spec: PartitionSpec
    holdout_n: int
    augment_target: tuple[float, ...] | None
    net: NetConfig
    deadline_s: float | None
    min_updates: int
    async_alpha0: float
    async_decay: float
    async_round_interval_s: float
    n_edges: int
    gossip_steps: int
    compression: CompressionSpec | None
    gate: GatePolicy
    deploy_policy: DeployPolicy
    monitor_window: int
    monitor_threshold: float
    monitor_cooldown: int
    monitor_band: float
    drift_round: int | None
    drift_flip_fraction: float
    incentive_rate: float
    cluster_k: int
    cluster_features: str

    def has(self, flag: str) -> bool:
        return flag in self.flags


_TOP_KEYS = (
    "arch",
    "hp",
    "rounds",
    "fraction_per_round",
    "aggregation_mode",
    "secure_masking",
    "init_mode",
    "n_clients",
    "seed",
    "optional_components",
    "selection",
    "data",
    "net",
    "round",
    "async",
    "hierarchy",
    "gossip",
    "compression",
    "gate",
    "deploy",
    "monitor",
    "incentives",
    "cluster",
)


def parse_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config mapping and assemble the typed form.

    The canonical dict (every default materialized) is what gets hashed
    into the run id and written back out as config.json.
    """
    top = _mapping(raw, "config")
    _reject_unknown(top, _TOP_KEYS, "")

    # --- architecture and training hyperparameters
    arch_raw = _mapping(top.get("arch", {}), "arch")
    _reject_unknown(arch_raw, ("kind", "input_dim", "hidden_dim", "num_classes"), "arch")
    kind = _as_str(arch_raw.get("kind", "logistic"), "arch.kind", ("logistic", "mlp"))
    input_dim = _as_int(arch_raw.get("input_dim", 4), "arch.input_dim", minimum=1)
    hidden_default = 8 if kind == "mlp" else 0
    hidden_dim = _as_int(arch_raw.get("hidden_dim", hidden_default), "arch.hidden_dim", minimum=0)
    num_classes = _as_int(arch_raw.get("num_classes", 3), "arch.num_classes", minimum=2)
    try:
        arch = ArchDescriptor(kind, input_dim, hidden_dim, num_classes)
    except ValueError as e:
        raise ConfigError(f"arch: {e}") from None

    seed = _as_int(top.get("seed", 0), "seed", minimum=0, maximum=_MAX_SEED - 1)
    if seed_override is not None:
        seed = _as_int(seed_override, "seed", minimum=0, maximum=_MAX_SEED - 1)

    hp_raw = _mapping(top.get("hp", {}), "hp")
    _reject_unknown(hp_raw, ("learning_rate", "epochs", "batch_size", "l2", "seed"), "hp")
    try:
        hp = Hyperparameters(
            learning_rate=_as_float(hp_raw.get("learning_rate", 0.1), "hp.learning_rate"),
            epochs=_as_int(hp_raw.get("epochs", 1), "hp.epochs"),
            batch_size=_as_int(hp_raw.get("batch_size", 20), "hp.batch_size"),
            l2=_as_float(hp_raw.get("l2", 0.0), "hp.l2"),
            seed=_as_int(hp_raw.get("seed", seed), "hp.seed", minimum=0),
        )
    except ValueError as e:
        raise ConfigError(f"hp: {e}") from None

    rounds = _as_int(top.get("rounds", 5), "rounds", minimum=1)
    fraction = _as_float(top.get("fraction_per_round", 1.0), "fraction_per_round")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("fraction_per_round: must lie in (0, 1]")
    mode = _as_str(top.get("aggregation_mode", MODE_FEDAVG), "aggregation_mode", AGGREGATION_MODES)
    secure_masking = _as_bool(top.get("secure_masking", mode == MODE_SECURE), "secure_masking")
    if mode == MODE_SECURE and not secure_masking:
        raise ConfigError("secure_masking: cannot be false when aggregation_mode is secure")
    init_mode = _as_str(top.get("init_mode", "zeros"), "init_mode", ("zeros", "seeded_uniform"))
    n_clients = _as_int(top.get("n_clients", 4), "n_clients", minimum=1)

    flags_raw = top.get("optional_components", [])
    if not isinstance(flags_raw, list):
        raise ConfigError("optional_components: expected a list of component names")
    flags = set()
    for i, flag in enumerate(flags_raw):
        name = _as_str(flag, f"optional_components[{i}]", ALL_FLAGS)
        if name in flags:
            raise ConfigError(f"optional_components: duplicate flag {name!r}")
        flags.add(name)

    # --- per-section settings, each gated on its component where one exists
    selection_raw = _mapping(top.get("selection", {}), "selection")
    _reject_unknown(selection_raw, ("min_resource", "min_samples", "strategy"), "selection")
    try:
        selection = SelectionCriteria(
            min_resource=_as_float(selection_raw.get("min_resource", 0.0), "selection.min_resource"),
            min_samples=_as_int(selection_raw.get("min_samples", 0), "selection.min_samples"),
            strategy=_as_str(
                selection_raw.get("strategy", "uniform_random"),
                "selection.strategy",
                SELECTION_STRATEGIES,
            ),
        )
    except ValueError as e:
        raise ConfigError(f"selection: {e}") from None

    data_raw = _mapping(top.get("data", {}), "data")
    _reject_unknown(
        data_raw,
        (
            "class_mean_scale",
            "noise_sigma",
            "samples_per_client",
            "holdout_n",
            "partition",
            "augment_target",
        ),
        "data",
    )
    part_raw = _mapping(data_raw.get("partition", {}), "data.partition")
    _reject_unknown(part_raw, ("mode", "alpha", "sigma"), "data.partition")
    try:
        synthetic = SyntheticSpec(
            num_classes=num_classes,
            input_dim=input_dim,
            class_mean_scale=_as_float(data_raw.get("class_mean_scale", 2.0), "data.class_mean_scale"),
            noise_sigma=_as_float(data_raw.get("noise_sigma", 0.3), "data.noise_sigma"),
            samples_per_client=_as_int(
                data_raw.get("samples_per_client", 40), "data.samples_per_client"
            ),
            seed=seed,
        )
        partition_spec = PartitionSpec(
            mode=_as_str(
                part_raw.get("mode", "iid"),
                "data.partition.mode",
                ("iid", "dirichlet_label_skew", "quantity_skew"),
            ),
            alpha=_as_float(part_raw.get("alpha", 1.0), "data.partition.alpha"),
            sigma=_as_float(part_raw.get("sigma", 0.5), "data.partition.sigma"),
            seed=seed,
        )
    except ValueError as e:
        raise ConfigError(f"data: {e}") from None
    holdout_n = _as_int(data_raw.get("holdout_n", 200), "data.holdout_n", minimum=1)
    augment_target = None
    if data_raw.get("augment_target") is not None:
        target_raw = data_raw["augment_target"]
        if not isinstance(target_raw, list) or len(target_raw) != num_classes:
            raise ConfigError(
                f"data.augment_target: expected a list of {num_classes} class weights"
            )
        augment_target = tuple(
            _as_float(w, f"data.augment_target[{i}]", minimum=0.0)
            for i, w in enumerate(target_raw)
        )

    net_raw = _mapping(top.get("net", {}), "net")
    _reject_unknown(
        net_raw,
        ("latency_ms_min", "latency_ms_max", "dropout_prob", "bandwidth_bytes_per_s", "seed"),
        "net",
    )
    bandwidth = net_raw.get("bandwidth_bytes_per_s")
    if bandwidth is not None:
        bandwidth = _as_float(bandwidth, "net.bandwidth_bytes_per_s")
    try:
        net = NetConfig(
            latency_ms_min=_as_float(net_raw.get("latency_ms_min", 10.0), "net.latency_ms_min"),
            latency_ms_max=_as_float(net_raw.get("latency_ms_max", 100.0), "net.latency_ms_max"),
            dropout_prob=_as_float(net_raw.get("dropout_prob", 0.05), "net.dropout_prob"),
            bandwidth_bytes_per_s=bandwidth,
            seed=_as_int(net_raw.get("seed", seed), "net.seed", minimum=0),
        )
    except ValueError as e:
        raise ConfigError(f"net: {e}") from None

    round_raw = _mapping(top.get("round", {}), "round")
    _reject_unknown(round_raw, ("deadline_s", "min_updates"), "round")
    deadline_s = round_raw.get("deadline_s")
    if deadline_s is not None:
        deadline_s = _as_float(deadline_s, "round.deadline_s")
        if deadline_s <= 0:
            raise ConfigError("round.deadline_s: must be positive (or null to wait)")
    min_updates = _as_int(round_raw.get("min_updates", 1), "round.min_updates", minimum=1)

    async_raw = _mapping(top.get("async") or {}, "async")
    _reject_unknown(async_raw, ("alpha0", "decay", "round_interval_s"), "async")
    if async_raw and mode != MODE_ASYNC:
        raise ConfigError("async: settings require aggregation_mode async")
    async_alpha0 = _as_float(async_raw.get("alpha0", 0.6), "async.alpha0")
    if not 0.0 < async_alpha0 <= 1.0:
        raise ConfigError("async.alpha0: must lie in (0, 1]")
    async_decay = _as_float(async_raw.get("decay", 0.5), "async.decay", minimum=0.0)
    async_interval = _as_float(async_raw.get("round_interval_s", 0.05), "async.round_interval_s")
    if async_interval <= 0:
        raise ConfigError("async.round_interval_s: must be positive")

    hier_raw = _mapping(top.get("hierarchy") or {}, "hierarchy")
    _reject_unknown(hier_raw, ("n_edges",), "hierarchy")
    if hier_raw and mode != MODE_HIERARCHICAL:
        raise ConfigError("hierarchy: settings require aggregation_mode hierarchical")
    n_edges = _as_int(hier_raw.get("n_edges", 2), "hierarchy.n_edges", minimum=1)

    gossip_raw = _mapping(top.get("gossip") or {}, "gossip")
    _reject_unknown(gossip_raw, ("steps_per_round",), "gossip")
    if gossip_raw and mode != MODE_DECENTRALISED:
        raise ConfigError("gossip: settings require aggregation_mode decentralised")
    gossip_steps = _as_int(gossip_raw.get("steps_per_round", 1), "gossip.steps_per_round", minimum=1)

    compression = None
    comp_raw = _mapping(top.get("compression") or {}, "compression")
    _reject_unknown(comp_raw, ("top_k", "bits"), "compression")
    if comp_raw and FLAG_COMPRESSOR not in flags:
        raise ConfigError("compression: settings require the compressor component")
    if FLAG_COMPRESSOR in flags:
        try:
            compression = CompressionSpec(
                top_k=_as_float(comp_raw.get("top_k", 0.1), "compression.top_k"),
                bits=_as_int(comp_raw.get("bits", 8), "compression.bits"),
            )
        except ValueError as e:
            raise ConfigError(f"compression: {e}") from None

    gate_raw = _mapping(top.get("gate", {}), "gate")
    _reject_unknown(gate_raw, ("min_accuracy", "max_loss"), "gate")
    max_loss = gate_raw.get("max_loss")
    if max_loss is not None:
        max_loss = _as_float(max_loss, "gate.max_loss")
    try:
        gate = GatePolicy(
            min_accuracy=_as_float(gate_raw.get("min_accuracy", 0.0), "gate.min_accuracy"),
            max_loss=max_loss,
        )
    except ValueError as e:
        raise ConfigError(f"gate: {e}") from None

    deploy_raw = _mapping(top.get("deploy", {}), "deploy")
    _reject_unknown(deploy_raw, ("min_global_accuracy", "max_global_loss"), "deploy")
    max_global_loss = deploy_raw.get("max_global_loss")
    if max_global_loss is None:
        max_global_loss = math.inf
    else:
        max_global_loss = _as_float(max_global_loss, "deploy.max_global_loss")
    try:
        deploy_policy = DeployPolicy(
            min_global_accuracy=_as_float(
                deploy_raw.get("min_global_accuracy", 0.0), "deploy.min_global_accuracy"
            ),
            max_global_loss=max_global_loss,
        )
    except ValueError as e:
        raise ConfigError(f"deploy: {e}") from None

    monitor_raw = _mapping(top.get("monitor") or {}, "monitor")
    _reject_unknown(
        monitor_raw,
        ("window", "threshold", "cooldown_rounds", "band", "drift_round", "drift_flip_fraction"),
        "monitor",
    )
    if monitor_raw and FLAG_MONITOR not in flags:
        raise ConfigError("monitor: settings require the monitor component")
    monitor_window = _as_int(monitor_raw.get("window", DEFAULT_WINDOW), "monitor.window", minimum=1)
    monitor_threshold = _as_float(monitor_raw.get("threshold", 0.0), "monitor.threshold")
    monitor_cooldown = _as_int(
        monitor_raw.get("cooldown_rounds", DEFAULT_COOLDOWN), "monitor.cooldown_rounds", minimum=0
    )
    monitor_band = _as_float(monitor_raw.get("band", DEFAULT_BAND), "monitor.band", minimum=0.0)
    drift_round = monitor_raw.get("drift_round")
    if drift_round is not None:
        drift_round = _as_int(drift_round, "monitor.drift_round", minimum=0)
    drift_flip = _as_float(
        monitor_raw.get("drift_flip_fraction", 0.3), "monitor.drift_flip_fraction",
        minimum=0.0, maximum=1.0,
    )

    incentives_raw = _mapping(top.get("incentives") or {}, "incentives")
    _reject_unknown(incentives_raw, ("rate_per_round",), "incentives")
    if incentives_raw and FLAG_INCENTIVES not in flags:
        raise ConfigError("incentives: settings require the incentives component")
    incentive_rate = _as_float(
        incentives_raw.get("rate_per_round", 1.0), "incentives.rate_per_round", minimum=0.0
    )

    cluster_raw = _mapping(top.get("cluster") or {}, "cluster")
    _reject_unknown(cluster_raw, ("k", "feature_source"), "cluster")
    if cluster_raw and FLAG_CLUSTER not in flags:
        raise ConfigError("cluster: settings require the cluster component")
    cluster_k = _as_int(cluster_raw.get("k", 2), "cluster.k", minimum=1)
    cluster_features = _as_str(
        cluster_raw.get("feature_source", FEATURES_LABELS),
        "cluster.feature_source",
        (FEATURES_LABELS, FEATURES_UPDATE),
    )

    # --- cross-field conflicts, reported together
    conflicts = []
    if secure_masking and mode == MODE_DECENTRALISED:
        conflicts.append("decentralised aggregation forbids secure masking")
    if secure_masking and mode == MODE_ASYNC:
        conflicts.append("async aggregation forbids secure masking (pads need a simultaneous round)")
    if secure_masking and mode == MODE_HIERARCHICAL:
        conflicts.append("hierarchical aggregation forbids secure masking")
    if secure_masking and FLAG_COMPRESSOR in flags:
        conflicts.append("secure masking forbids the compressor component (masked sums are dense)")
    if secure_masking and FLAG_DEPLOYMENT_SELECTOR in flags:
        conflicts.append(
            "secure masking forbids the deployment_selector component "
            "(per-cluster models need unmasked updates)"
        )
    if FLAG_MULTITASK in flags and arch.kind != "mlp":
        conflicts.append("the multitask component requires an mlp arch")
    if FLAG_MULTITASK in flags and mode == MODE_DECENTRALISED:
        conflicts.append("the multitask component does not support decentralised aggregation")
    if FLAG_COMPRESSOR in flags and mode == MODE_DECENTRALISED:
        conflicts.append("the compressor component does not support decentralised aggregation")
    if gate != GatePolicy() and mode == MODE_DECENTRALISED:
        conflicts.append("decentralised aggregation forbids the upload gate (every node gossips)")
    if FLAG_DEPLOYMENT_SELECTOR in flags and FLAG_CLUSTER not in flags:
        conflicts.append("the deployment_selector component requires the cluster component")
    if FLAG_DEPLOYMENT_SELECTOR in flags and mode in (MODE_ASYNC, MODE_DECENTRALISED):
        conflicts.append("the deployment_selector component requires a synchronous round structure")
    if selection.strategy == STRATEGY_TOP_ACCURACY and FLAG_REGISTRY not in flags:
        conflicts.append("top_accuracy selection requires the registry component")
    if drift_round is not None and drift_round >= rounds:
        conflicts.append("monitor.drift_round must fall inside the run's rounds")
    if cluster_k > n_clients:
        conflicts.append("cluster.k cannot exceed n_clients")
    if conflicts:
        raise ConfigError("; ".join(conflicts))

    canonical = {
        "arch": {
            "kind": kind,
            "input_dim": input_dim,
            "hidden_dim": hidden_dim,
            "num_classes": num_classes,
        },
        "hp": {
            "learning_rate": hp.learning_rate,
            "epochs": hp.epochs,
            "batch_size": hp.batch_size,
            "l2": hp.l2,
            "seed": hp.seed,
        },
        "rounds": rounds,
        "fraction_per_round": fraction,
        "aggregation_mode": mode,
        "secure_masking": secure_masking,
        "init_mode": init_mode,
        "n_clients": n_clients,
        "seed": seed,
        "optional_components": sorted(flags),
        "selection": {
            "min_resource": selection.min_resource,
            "min_samples": selection.min_samples,
            "strategy": selection.strategy,
        },
        "data": {
            "class_mean_scale": synthetic.class_mean_scale,
            "noise_sigma": synthetic.noise_sigma,
            "samples_per_client": synthetic.samples_per_client,
            "holdout_n": holdout_n,
            "partition": {
                "mode": partition_spec.mode,
                "alpha": partition_spec.alpha,
                "sigma": partition_spec.sigma,
            },
            "augment_target": list(augment_target) if augment_target is not None else None,
        },
        "net": {
            "latency_ms_min": net.latency_ms_min,
            "latency_ms_max": net.latency_ms_max,
            "dropout_prob": net.dropout_prob,
            "bandwidth_bytes_per_s": net.bandwidth_bytes_per_s,
            "seed": net.seed,
        },
        "round": {"deadline_s": deadline_s, "min_updates": min_updates},
        "async": (
            {
                "alpha0": async_alpha0,
                "decay": async_decay,
                "round_interval_s": async_interval,
            }
            if mode == MODE_ASYNC
            else None
        ),
        "hierarchy": {"n_edges": n_edges} if mode == MODE_HIERARCHICAL else None,
        "gossip": {"steps_per_round": gossip_steps} if mode == MODE_DECENTRALISED else None,
        "compression": (
            {"top_k": compression.top_k, "bits": compression.bits}
            if compression is not None
            else None
        ),
        "gate": {"min_accuracy": gate.min_accuracy, "max_loss": gate.max_loss},
        "deploy": {
            "min_global_accuracy": deploy_policy.min_global_accuracy,
            "max_global_loss": (
                None if math.isinf(deploy_policy.max_global_loss) else deploy_policy.max_global_loss
            ),
        },
        "monitor": (
            {
                "window": monitor_window,
                "threshold": monitor_threshold,
                "cooldown_rounds": monitor_cooldown,
                "band": monitor_band,
                "drift_round": drift_round,
                "drift_flip_fraction": drift_flip,
            }
            if FLAG_MONITOR in flags
            else None
        ),
        "incentives": (
            {"rate_per_round": incentive_rate} if FLAG_INCENTIVES in flags else None
        ),
        "cluster": (
            {"k": cluster_k, "feature_source": cluster_features}
            if FLAG_CLUSTER in flags
            else None
        ),
    }
    run_id = compute_run_id(canonical)

    return ExperimentConfig(
        canonical=canonical,
        run_id=run_id,
        arch=arch,
        hp=hp,
        rounds=rounds,
        fraction=fraction,
        aggregation_mode=mode,
        secure_masking=secure_masking,
        init_mode=init_mode,
        n_clients=n_clients,
        seed=seed,
        flags=frozenset(flags),
        selection=selection,
        synthetic=synthetic,
        partition_spec=partition_spec,
        holdout_n=holdout_n,
        augment_target=augment_target,
        net=net,
        deadline_s=deadline_s,
        min_updates=min_updates,
        async_alpha0=async_alpha0,
        async_decay=async_decay,
        async_round_interval_s=async_interval,
        n_edges=n_edges,
        gossip_steps=gossip_steps,
        compression=compression,
        gate=gate,
        deploy_policy=deploy_policy,
        monitor_window=monitor_window,
        monitor_threshold=monitor_threshold,
        monitor_cooldown=monitor_cooldown,
        monitor_band=monitor_band,
        drift_round=drift_round,
        drift_flip_fraction=drift_flip,
        incentive_rate=incentive_rate,
        cluster_k=cluster_k,
        cluster_features=cluster_features,
    )


def compute_run_id(canonical: dict) -> str:
    from .wire import hash_hex

    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    return hash_hex(blob)


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return parse_config(raw, seed_override)
