"""Experiment configuration: strict JSON schema, defaults, run identity.

Every run is a pure function of this file plus a seed, so validation is
deliberately unforgiving: unknown keys fail fast with their full path,
and cross-field conflicts are collected and reported together.

Each section is one field table mapping key -> (reader, default), in
reading order; the canonical dict is what the tables read.
"""

from __future__ import annotations

import json
import math
from collections import ChainMap
from dataclasses import dataclass, fields
from pathlib import Path

from .aggregation import MODE_ASYNC, MODE_FEDAVG, MODE_HIERARCHICAL, MODE_SECURE
from .client import CompressionSpec, GatePolicy
from .data import MODE_IID, PARTITION_MODES, PartitionSpec, SyntheticSpec, _check_weights
from .errors import ConfigError
from .models import _MAX_SEED, KIND_LOGISTIC, KIND_MLP, MODEL_KINDS, ArchDescriptor, Hyperparameters
from .monitoring import DEFAULT_COOLDOWN, DEFAULT_WINDOW, DeployPolicy
from .orchestrator import (
    SELECTION_STRATEGIES,
    STRATEGY_TOP_ACCURACY,
    STRATEGY_UNIFORM,
    SelectionCriteria,
)
from .simnet import NetConfig

# the config name of gossip aggregation; its versions are minted as MODE_GOSSIP records
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


# ---------------------------------------------------------------------------
# readers: read(value, path, known) -> canonical value, where known holds
# every setting read so far, the innermost section first. They reject
# rather than coerce.
# ---------------------------------------------------------------------------


def _int(minimum=None, maximum=None):
    def read(value, path: str, known=None) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{path}: must be <= {maximum}")
        return value

    return read


def _float(minimum=None, maximum=None):
    def read(value, path: str, known=None) -> float:
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

    return read


def _choice(*choices: str):
    def read(value, path: str, known=None) -> str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        if value not in choices:
            raise ConfigError(f"{path}: must be one of {list(choices)}, got {value!r}")
        return value

    return read


def _optional(read):
    """null is a legal value and stays null."""
    return lambda value, path, known: None if value is None else read(value, path, known)


def _bounded(holds, rule: str):
    """A number x for which holds(x); rule names the bound when it does not."""

    def read(value, path, known):
        out = _float()(value, path)
        if not holds(out):
            raise ConfigError(f"{path}: {rule}")
        return out

    return read


def _table(table: dict):
    return lambda value, path, known: _section(value, path, table, known)


class _Off(dict):
    """A scoped section that is off: the run uses its defaults, config.json has null."""


def _scoped(table: dict, scope):
    """A section that applies only in one mode or with one component.

    null reads as {} (config.json writes a section that is off as null);
    settings given while the section is off are rejected.
    """
    requirement, applies = scope

    def read(value, path, known):
        value = {} if value is None else value
        if value and not applies(known):
            _check_keys(value, path, table)
            raise ConfigError(f"{path}: settings require {requirement}")
        values = _section(value, path, table, known)
        return values if applies(known) else _Off(values)

    return read


def _mode(mode: str):
    return f"aggregation_mode {mode}", lambda known: known["aggregation_mode"] == mode


def _component(flag: str):
    return f"the {flag} component", lambda known: flag in known["optional_components"]


def _seed(value, path: str, known) -> int:
    """The master seed; a seed override replaces it once the file's value is valid."""
    read = _int(minimum=0, maximum=_MAX_SEED - 1)
    seed, override = read(value, path), known["seed_override"]
    return seed if override is None else read(override, path)


def _flags(value, path: str, known) -> list[str]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of component names")
    flags = set()
    for i, flag in enumerate(value):
        name = _choice(*ALL_FLAGS)(flag, f"{path}[{i}]")
        if name in flags:
            raise ConfigError(f"{path}: duplicate flag {name!r}")
        flags.add(name)
    return sorted(flags)


def _class_weights(value, path: str, known) -> list[float]:
    n = known["arch"]["num_classes"]
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{path}: expected a list of {n} class weights")
    weight = _float(minimum=0.0)
    weights = [weight(w, f"{path}[{i}]") for i, w in enumerate(value)]
    try:
        _check_weights(weights, n)  # the rule set-up applies
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    return weights


def _check_keys(raw, path: str, table: dict) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key in raw:
        if key not in table:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {where}")


def _section(raw, path: str, table: dict, outer) -> dict:
    """Read one section against its field table and return its canonical dict.

    Unknown keys are rejected; a missing key takes its default, and a
    callable default is computed from the settings known so far.
    """
    _check_keys(raw, path, table)
    prefix = f"{path}." if path else ""
    out = {}
    known = ChainMap(out, outer)
    for key, (read, default) in table.items():
        if key in raw:
            value = raw[key]
        elif callable(default):
            value = default(known)
        else:
            value = default
        out[key] = read(value, prefix + key, known)
    return out


# ---------------------------------------------------------------------------
# the field tables
# ---------------------------------------------------------------------------


def _positive(x: float) -> bool:
    return x > 0


_UNIT_FRACTION = _bounded(lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")

_ARCH = {
    "kind": (_choice(*MODEL_KINDS), KIND_LOGISTIC),
    "input_dim": (_int(minimum=1), 4),
    "hidden_dim": (_int(minimum=0), lambda known: 8 if known["kind"] == KIND_MLP else 0),
    "num_classes": (_int(minimum=2), 3),
}

_HP = {
    "learning_rate": (_float(), 0.1),
    "epochs": (_int(), 1),
    "batch_size": (_int(), 20),
    "l2": (_float(), 0.0),
    "seed": (_int(minimum=0), lambda known: known["seed"]),  # the master seed
}

_SELECTION = {
    "min_resource": (_float(), 0.0),
    "min_samples": (_int(), 0),
    "strategy": (_choice(*SELECTION_STRATEGIES), STRATEGY_UNIFORM),
}

_PARTITION = {
    "mode": (_choice(*PARTITION_MODES), MODE_IID),
    "alpha": (_float(), 1.0),
    "sigma": (_float(), 0.5),
}

_DATA = {
    "class_mean_scale": (_float(), 2.0),
    "noise_sigma": (_float(), 0.3),
    "samples_per_client": (_int(), 40),
    "holdout_n": (_int(minimum=1), 200),
    "partition": (_table(_PARTITION), {}),
    "augment_target": (_optional(_class_weights), None),
}

_NET = {
    "latency_ms_min": (_float(), 10.0),
    "latency_ms_max": (_float(), 100.0),
    # gossip links are lossless, so a ring drops nothing
    "dropout_prob": (
        _float(),
        lambda known: 0.0 if known["aggregation_mode"] == MODE_DECENTRALISED else 0.05,
    ),
    "bandwidth_bytes_per_s": (_optional(_float()), None),
    "seed": (_int(minimum=0), lambda known: known["seed"]),  # the master seed
}

_ROUND = {
    "deadline_s": (_optional(_bounded(_positive, "must be positive (or null to wait)")), None),
    "min_updates": (_int(minimum=1), 1),
}

_ASYNC = {
    "alpha0": (_UNIT_FRACTION, 0.6),
    "decay": (_float(minimum=0.0), 0.5),
    "round_interval_s": (_bounded(_positive, "must be positive"), 0.05),
}

_HIERARCHY = {"n_edges": (_int(minimum=1), 2)}

_GOSSIP = {"steps_per_round": (_int(minimum=1), 1)}

_COMPRESSION = {
    "top_k": (_float(), 0.1),
    "bits": (_int(), 8),
}

_GATE = {
    "min_accuracy": (_float(), 0.0),
    "max_loss": (_optional(_float()), None),
}

_DEPLOY = {
    "min_global_accuracy": (_float(), 0.0),
    "max_global_loss": (_optional(_float()), None),  # null: no bound
}

_MONITOR = {
    "window": (_int(minimum=1), DEFAULT_WINDOW),
    "threshold": (_float(), 0.0),
    "cooldown_rounds": (_int(minimum=0), DEFAULT_COOLDOWN),
    "drift_round": (_optional(_int(minimum=0)), None),
    "drift_flip_fraction": (_float(minimum=0.0, maximum=1.0), 0.3),
}

_INCENTIVES = {"rate_per_round": (_float(minimum=0.0), 1.0)}

_CLUSTER = {
    "k": (_int(minimum=1), 2),
    "feature_source": (_choice(FEATURES_LABELS, FEATURES_UPDATE), FEATURES_LABELS),
}

# the whole file; a default or reader may depend only on settings above it
_CONFIG = {
    "arch": (_table(_ARCH), {}),
    "seed": (_seed, 0),
    "hp": (_table(_HP), {}),
    "rounds": (_int(minimum=1), 5),
    "fraction_per_round": (_UNIT_FRACTION, 1.0),
    "aggregation_mode": (_choice(*AGGREGATION_MODES), MODE_FEDAVG),
    "init_mode": (_choice("zeros", "seeded_uniform"), "zeros"),
    "n_clients": (_int(minimum=1), 4),
    "optional_components": (_flags, []),
    "selection": (_table(_SELECTION), {}),
    "data": (_table(_DATA), {}),
    "net": (_table(_NET), {}),
    "round": (_table(_ROUND), {}),
    "async": (_scoped(_ASYNC, _mode(MODE_ASYNC)), None),
    "hierarchy": (_scoped(_HIERARCHY, _mode(MODE_HIERARCHICAL)), None),
    "gossip": (_scoped(_GOSSIP, _mode(MODE_DECENTRALISED)), None),
    "compression": (_scoped(_COMPRESSION, _component(FLAG_COMPRESSOR)), None),
    "gate": (_table(_GATE), {}),
    "deploy": (_table(_DEPLOY), {}),
    "monitor": (_scoped(_MONITOR, _component(FLAG_MONITOR)), None),
    "incentives": (_scoped(_INCENTIVES, _component(FLAG_INCENTIVES)), None),
    "cluster": (_scoped(_CLUSTER, _component(FLAG_CLUSTER)), None),
}


def _build(section: str, cls, values: dict, **extra):
    """Construct a typed object from a section's values, by keyword."""
    names = {f.name for f in fields(cls)}
    kwargs = {key: value for key, value in values.items() if key in names}
    try:
        return cls(**{**kwargs, **extra})
    except ValueError as e:
        raise ConfigError(f"{section}: {e}") from None


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
    drift_round: int | None
    drift_flip_fraction: float
    incentive_rate: float
    cluster_k: int
    cluster_features: str

    def has(self, flag: str) -> bool:
        return flag in self.flags


def parse_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config mapping and assemble the typed form.

    The canonical dict (every default materialized) is what gets hashed
    into the run id and written back out as config.json.
    """
    values = _section(raw, "", _CONFIG, {"seed_override": seed_override})
    mode = values["aggregation_mode"]
    canonical = {key: None if isinstance(v, _Off) else v for key, v in values.items()}

    seed = values["seed"]
    flags = frozenset(values["optional_components"])
    data, monitor, cluster = values["data"], values["monitor"], values["cluster"]
    arch = _build("arch", ArchDescriptor, values["arch"])
    hp = _build("hp", Hyperparameters, values["hp"])
    selection = _build("selection", SelectionCriteria, values["selection"])
    # the class count and input width come from arch
    synthetic = _build("data", SyntheticSpec, {**values["arch"], **data}, seed=seed)
    partition_spec = _build("data", PartitionSpec, data["partition"], seed=seed)
    net = _build("net", NetConfig, values["net"])
    comp = canonical["compression"]
    compression = None if comp is None else _build("compression", CompressionSpec, comp)
    gate = _build("gate", GatePolicy, values["gate"])
    loss_bound = values["deploy"]["max_global_loss"]
    loss_bound = math.inf if loss_bound is None else loss_bound
    deploy_policy = _build("deploy", DeployPolicy, values["deploy"], max_global_loss=loss_bound)

    # --- cross-field conflicts, reported together
    conflicts = []
    n_clients = values["n_clients"]
    min_updates = values["round"]["min_updates"]
    if mode == MODE_SECURE and FLAG_COMPRESSOR in flags:
        conflicts.append(
            "secure aggregation forbids the compressor component (masked sums are dense)"
        )
    if mode == MODE_SECURE and FLAG_DEPLOYMENT_SELECTOR in flags:
        conflicts.append(
            "secure aggregation forbids the deployment_selector component "
            "(per-cluster models need unmasked updates)"
        )
    if mode == MODE_SECURE and math.ceil(values["fraction_per_round"] * n_clients) < 2:
        conflicts.append(
            "secure aggregation needs 2 or more clients a round "
            "(ceil(fraction_per_round * n_clients) >= 2)"
        )
    if mode == MODE_DECENTRALISED and n_clients < 2:
        conflicts.append("decentralised aggregation needs n_clients >= 2 (a ring)")
    if mode == MODE_DECENTRALISED and values["net"]["dropout_prob"] != 0.0:
        conflicts.append(
            "decentralised aggregation forbids a net.dropout_prob above 0 "
            "(gossip links are lossless)"
        )
    if FLAG_MULTITASK in flags and arch.kind != KIND_MLP:
        conflicts.append("the multitask component requires an mlp arch")
    if FLAG_MULTITASK in flags and mode == MODE_DECENTRALISED:
        conflicts.append("the multitask component does not support decentralised aggregation")
    if FLAG_COMPRESSOR in flags and mode == MODE_DECENTRALISED:
        conflicts.append("the compressor component does not support decentralised aggregation")
    if gate != GatePolicy() and mode == MODE_DECENTRALISED:
        conflicts.append("decentralised aggregation forbids the upload gate (every node gossips)")
    if FLAG_DEPLOYMENT_SELECTOR in flags and FLAG_CLUSTER not in flags:
        conflicts.append("the deployment_selector component requires the cluster component")
    if FLAG_CLUSTER in flags and FLAG_DEPLOYMENT_SELECTOR not in flags:
        conflicts.append(
            "the cluster component requires the deployment_selector component "
            "(nothing else reads the clusters)"
        )
    if FLAG_DEPLOYMENT_SELECTOR in flags and mode in (MODE_ASYNC, MODE_DECENTRALISED):
        conflicts.append("the deployment_selector component requires a synchronous round structure")
    if selection != SelectionCriteria() and FLAG_SELECTOR not in flags:
        conflicts.append("selection settings require the selector component")
    if selection == SelectionCriteria() and FLAG_SELECTOR in flags:
        conflicts.append(
            "the selector component requires selection settings "
            "(with the defaults it draws as it does without the component)"
        )
    if selection.strategy == STRATEGY_TOP_ACCURACY and FLAG_REGISTRY not in flags:
        conflicts.append("top_accuracy selection requires the registry component")
    if FLAG_SELECTOR in flags and mode == MODE_DECENTRALISED:
        conflicts.append("the selector component does not support decentralised aggregation")
    if values["fraction_per_round"] < 1.0 and mode == MODE_DECENTRALISED:
        conflicts.append("decentralised aggregation forbids fraction_per_round below 1")
    custom_round = values["round"] != _section({}, "round", _ROUND, {})
    if custom_round and mode in (MODE_ASYNC, MODE_DECENTRALISED):
        conflicts.append("round settings require a synchronous aggregation mode")
    if min_updates != 1 and mode == MODE_SECURE:
        conflicts.append("secure aggregation forbids round.min_updates (it needs every update)")
    if min_updates > n_clients:
        conflicts.append("round.min_updates cannot exceed n_clients")
    if monitor["drift_round"] is not None and monitor["drift_round"] >= values["rounds"]:
        conflicts.append("monitor.drift_round must fall inside the run's rounds")
    if FLAG_CLUSTER in flags and cluster["k"] > n_clients:
        conflicts.append("cluster.k cannot exceed n_clients")
    if data["augment_target"] is not None and FLAG_HETEROGENEOUS not in flags:
        conflicts.append("data.augment_target requires the heterogeneous_handler component")
    if conflicts:
        raise ConfigError("; ".join(conflicts))

    augment_target = data["augment_target"]
    return ExperimentConfig(
        canonical=canonical,
        run_id=compute_run_id(canonical),
        arch=arch,
        hp=hp,
        rounds=values["rounds"],
        fraction=values["fraction_per_round"],
        aggregation_mode=mode,
        init_mode=values["init_mode"],
        n_clients=n_clients,
        seed=seed,
        flags=flags,
        selection=selection,
        synthetic=synthetic,
        partition_spec=partition_spec,
        holdout_n=data["holdout_n"],
        augment_target=None if augment_target is None else tuple(augment_target),
        net=net,
        deadline_s=values["round"]["deadline_s"],
        min_updates=min_updates,
        async_alpha0=values["async"]["alpha0"],
        async_decay=values["async"]["decay"],
        async_round_interval_s=values["async"]["round_interval_s"],
        n_edges=values["hierarchy"]["n_edges"],
        gossip_steps=values["gossip"]["steps_per_round"],
        compression=compression,
        gate=gate,
        deploy_policy=deploy_policy,
        monitor_window=monitor["window"],
        monitor_threshold=monitor["threshold"],
        monitor_cooldown=monitor["cooldown_rounds"],
        drift_round=monitor["drift_round"],
        drift_flip_fraction=monitor["drift_flip_fraction"],
        incentive_rate=values["incentives"]["rate_per_round"],
        cluster_k=cluster["k"],
        cluster_features=cluster["feature_source"],
    )


def compute_run_id(canonical: dict) -> str:
    from .wire import fnv1a64

    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    return f"{fnv1a64(blob):016x}"


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
