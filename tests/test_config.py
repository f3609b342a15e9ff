"""Config schema validation, defaults, and run identity."""

import json
from pathlib import Path

import pytest

from fedsim.config import (
    FLAG_CLUSTER,
    FLAG_COMPRESSOR,
    FLAG_MULTITASK,
    FLAG_REGISTRY,
    load_config,
    parse_config,
)
from fedsim.errors import ConfigError
from fedsim.runner import run_experiment
from fedsim.wire import K_UPDATE_MASKED

# the golden configs and the benchmark workloads
SHIPPED_CONFIGS = [
    pytest.param(json.loads(p.read_text()), id=p.stem)
    for p in sorted((Path(__file__).parent / "golden").glob("g*.json"))
] + [
    pytest.param(w["config"], id=w["name"])
    for w in json.loads((Path(__file__).parents[1] / "bench" / "workloads.json").read_text())[
        "workloads"
    ]
]


def test_empty_config_materializes_defaults():
    cfg = parse_config({})
    assert cfg.arch.kind == "logistic"
    assert cfg.n_clients == 4
    assert cfg.rounds == 5
    assert cfg.aggregation_mode == "fedavg"
    assert cfg.fraction == 1.0
    assert cfg.flags == frozenset()
    assert cfg.compression is None
    assert cfg.deadline_s is None
    assert cfg.min_updates == 1
    # seeds cascade from the master seed unless pinned
    assert cfg.hp.seed == cfg.seed == 0
    assert cfg.net.seed == 0


def test_run_id_is_16_hex_and_stable():
    a = parse_config({"rounds": 3})
    b = parse_config({"rounds": 3})
    assert a.run_id == b.run_id
    assert len(a.run_id) == 16
    assert all(c in "0123456789abcdef" for c in a.run_id)


def test_run_id_changes_with_any_field():
    base = parse_config({})
    assert parse_config({"rounds": 6}).run_id != base.run_id
    assert parse_config({"seed": 1}).run_id != base.run_id


def test_seed_override_wins_and_feeds_run_id():
    a = parse_config({"seed": 5})
    b = parse_config({"seed": 5}, seed_override=9)
    assert b.seed == 9
    assert b.hp.seed == 9
    assert a.run_id != b.run_id


def test_explicit_config_matches_defaulted_twin():
    # writing a default out by hand must not change the run identity
    assert parse_config({"rounds": 5}).run_id == parse_config({}).run_id


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown config key roundz"):
        parse_config({"roundz": 5})


def test_unknown_nested_key_reports_full_path():
    with pytest.raises(ConfigError, match=r"data\.partition\.alphaa"):
        parse_config({"data": {"partition": {"alphaa": 0.1}}})


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError, match="rounds"):
        parse_config({"rounds": True})


def test_fraction_zero_rejected():
    with pytest.raises(ConfigError, match="fraction_per_round"):
        parse_config({"fraction_per_round": 0.0})


def test_bad_aggregation_mode_lists_choices():
    with pytest.raises(ConfigError, match="aggregation_mode"):
        parse_config({"aggregation_mode": "fedavg2"})


def test_secure_mode_implies_masking():
    res = run_experiment(
        parse_config({"aggregation_mode": "secure", "n_clients": 3, "rounds": 2}), None
    )
    for vid in res.ledger.versions()[1:]:
        rec = res.ledger.get(vid)
        assert rec.aggregation_mode == "secure"
        assert all(c.update_kind == K_UPDATE_MASKED for c in rec.contributors)


def test_secure_mode_with_masking_disabled_rejected():
    with pytest.raises(ConfigError, match="secure_masking"):
        parse_config({"aggregation_mode": "secure", "secure_masking": False})


def test_decentralised_with_secure_masking_conflict():
    with pytest.raises(ConfigError, match="^unknown config key secure_masking$"):
        parse_config({"aggregation_mode": "decentralised", "secure_masking": True})


def test_conflicts_reported_together():
    # one error naming every violation, not just the first
    with pytest.raises(ConfigError) as exc:
        parse_config(
            {
                "aggregation_mode": "decentralised",
                "gate": {"min_accuracy": 0.5},
                "optional_components": [FLAG_COMPRESSOR, FLAG_MULTITASK],
            }
        )
    msg = str(exc.value)
    assert "upload gate" in msg
    assert "compressor" in msg
    assert "multitask" in msg


def test_multitask_requires_mlp():
    with pytest.raises(ConfigError, match="multitask component requires an mlp"):
        parse_config({"optional_components": [FLAG_MULTITASK]})
    cfg = parse_config(
        {"arch": {"kind": "mlp", "hidden_dim": 4}, "optional_components": [FLAG_MULTITASK]}
    )
    assert cfg.has(FLAG_MULTITASK)


def test_deployment_selector_requires_cluster():
    with pytest.raises(ConfigError, match="requires the cluster component"):
        parse_config({"optional_components": ["deployment_selector"]})
    cfg = parse_config({"optional_components": ["deployment_selector", FLAG_CLUSTER]})
    assert cfg.cluster_k == 2


def test_top_accuracy_needs_registry():
    with pytest.raises(ConfigError, match="registry"):
        parse_config({"selection": {"strategy": "top_accuracy"}})
    parse_config(
        {
            "selection": {"strategy": "top_accuracy"},
            "optional_components": [FLAG_REGISTRY, "selector"],
        }
    )


def test_mode_scoped_section_rejected_elsewhere():
    with pytest.raises(ConfigError, match="async: settings require"):
        parse_config({"async": {"alpha0": 0.5}})
    with pytest.raises(ConfigError, match="hierarchy: settings require"):
        parse_config({"hierarchy": {"n_edges": 3}})
    with pytest.raises(ConfigError, match="gossip: settings require"):
        parse_config({"gossip": {"steps_per_round": 2}})


def test_flag_scoped_section_rejected_without_flag():
    with pytest.raises(ConfigError, match="compression: settings require"):
        parse_config({"compression": {"bits": 4}})
    with pytest.raises(ConfigError, match="monitor: settings require"):
        parse_config({"monitor": {"window": 3}})


def test_compression_defaults_under_flag():
    cfg = parse_config({"optional_components": [FLAG_COMPRESSOR]})
    assert cfg.compression is not None
    assert cfg.compression.top_k == 0.1
    assert cfg.compression.bits == 8


def test_drift_round_must_precede_end():
    with pytest.raises(ConfigError, match="drift_round"):
        parse_config(
            {"rounds": 10, "optional_components": ["monitor"], "monitor": {"drift_round": 10}}
        )


def test_duplicate_flag_rejected():
    with pytest.raises(ConfigError, match="duplicate flag"):
        parse_config({"optional_components": [FLAG_REGISTRY, FLAG_REGISTRY]})


def test_canonical_dict_round_trips_through_json():
    cfg = parse_config({"rounds": 2, "optional_components": [FLAG_CLUSTER, "deployment_selector"]})
    clone = json.loads(json.dumps(cfg.canonical))
    assert parse_config(clone).run_id == cfg.run_id


@pytest.mark.parametrize("raw", SHIPPED_CONFIGS)
def test_shipped_configs_round_trip_through_config_json(raw, tmp_path):
    cfg = parse_config(raw)
    again = parse_config(json.loads(json.dumps(cfg.canonical)))
    assert again.canonical == cfg.canonical
    assert again.run_id == cfg.run_id
    run_experiment(cfg, tmp_path / "run")
    assert load_config(tmp_path / "run" / "config.json").run_id == cfg.run_id


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"hp": {"l2": "x"}}, "hp.l2: expected a number"),
        ({"selection": {"min_samples": "x"}}, "selection.min_samples: expected an integer"),
        ({"data": {"noise_sigma": "x"}}, "data.noise_sigma: expected a number"),
        ({"net": {"dropout_prob": "x"}}, "net.dropout_prob: expected a number"),
        ({"gate": {"min_accuracy": "x"}}, "gate.min_accuracy: expected a number"),
        ({"deploy": {"min_global_accuracy": "x"}}, "deploy.min_global_accuracy: expected a number"),
        (
            {"optional_components": [FLAG_COMPRESSOR], "compression": {"bits": "x"}},
            "compression.bits: expected an integer",
        ),
    ],
    ids=["hp", "selection", "data", "net", "gate", "deploy", "compression"],
)
def test_reader_error_names_its_key_once(raw, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value) == message


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"rounds": 2}))
    cfg = load_config(p)
    assert cfg.rounds == 2


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.json")


@pytest.mark.parametrize("gate", [{"min_accuracy": 0.99}, {"max_loss": 1.0}])
def test_decentralised_rejects_upload_gate(gate):
    # gossip nodes always share their state, so a gate would do nothing
    with pytest.raises(ConfigError, match="decentralised aggregation forbids the upload gate"):
        parse_config({"aggregation_mode": "decentralised", "gate": gate})


def test_decentralised_accepts_disabled_gate_and_its_canonical_form():
    cfg = parse_config({"aggregation_mode": "decentralised", "gate": {"min_accuracy": 0.0}})
    # config.json writes the disabled gate out; it must parse back to the same run
    assert parse_config(cfg.canonical).run_id == cfg.run_id


@pytest.mark.parametrize("masking", [{"aggregation_mode": "secure"}])
def test_secure_masking_rejects_deployment_selector(masking):
    # masked uploads cannot be averaged per cluster, so every deployment
    # would ship the root model
    raw = {**masking, "optional_components": [FLAG_CLUSTER, "deployment_selector"]}
    with pytest.raises(ConfigError, match="secure aggregation forbids the deployment_selector"):
        parse_config(raw)


def test_one_client_without_clustering_is_accepted_and_runs():
    # cluster.k applies only with the cluster component
    res = run_experiment(parse_config({"n_clients": 1, "rounds": 2}), None)
    assert res.ledger.versions() == ("g0", "g1", "g2")
    with pytest.raises(ConfigError, match="cluster.k cannot exceed n_clients"):
        parse_config({"n_clients": 1, "optional_components": [FLAG_CLUSTER]})


@pytest.mark.parametrize("value", [False, [], 0, ""])
@pytest.mark.parametrize(
    "section", ["async", "hierarchy", "gossip", "compression", "monitor", "incentives", "cluster"]
)
def test_scoped_section_rejects_an_empty_non_object(section, value):
    with pytest.raises(ConfigError, match=f"^{section}: expected an object$"):
        parse_config({section: value})


@pytest.mark.parametrize(
    "selection", [{"min_samples": 5}, {"min_resource": 0.5}, {"strategy": "top_resource"}]
)
def test_selection_settings_require_the_selector_component(selection):
    with pytest.raises(ConfigError, match="selection settings require the selector component"):
        parse_config({"selection": selection})
    cfg = parse_config({"selection": selection, "optional_components": ["selector"]})
    assert cfg.canonical["selection"] == {**parse_config({}).canonical["selection"], **selection}
    # the defaults written out by config.json need no selector
    parse_config({"selection": parse_config({}).canonical["selection"]})


GOSSIP = {"aggregation_mode": "decentralised"}


@pytest.mark.parametrize(
    "raw, message",
    [
        (
            {"aggregation_mode": "async", "round": {"deadline_s": 1.0}},
            "round settings require a synchronous aggregation mode",
        ),
        ({**GOSSIP, "round": {"min_updates": 2}}, "round settings require a synchronous"),
        (
            {"aggregation_mode": "secure", "round": {"min_updates": 4}},
            "secure aggregation forbids round.min_updates",
        ),
        (
            {**GOSSIP, "fraction_per_round": 0.5},
            "decentralised aggregation forbids fraction_per_round below 1",
        ),
        (
            {**GOSSIP, "optional_components": ["selector"], "selection": {"min_samples": 10_000}},
            "the selector component does not support decentralised aggregation",
        ),
        (
            {"optional_components": ["selector"]},
            "the selector component requires selection settings",
        ),
        (
            {"optional_components": ["selector"], "selection": {"strategy": "uniform_random"}},
            "the selector component requires selection settings",
        ),
    ],
    ids=[
        "async-round",
        "gossip-round",
        "secure-min-updates",
        "gossip-fraction",
        "gossip-selector",
        "selector-alone",
        "selector-default-selection",
    ],
)
def test_setting_that_changes_nothing_is_a_named_conflict(raw, message):
    # each of these ran, and gave the artifacts of its default, before it was rejected
    with pytest.raises(ConfigError, match=message.replace(".", r"\.")):
        parse_config(raw)
    # the default values, as config.json writes them, are still accepted
    defaults = parse_config({}).canonical
    parse_config({**raw, **{key: defaults[key] for key in raw if key != "aggregation_mode"}})


@pytest.mark.parametrize(
    "raw, message, accepted",
    [
        ({"secure_masking": True}, "^unknown config key secure_masking$", {}),
        (
            {"optional_components": ["monitor"], "monitor": {"band": 0.3}},
            "^unknown config key monitor.band$",
            {"optional_components": ["monitor"]},
        ),
        (
            {**GOSSIP, "net": {"dropout_prob": 0.5}},
            "decentralised aggregation forbids a net.dropout_prob above 0",
            {**GOSSIP, "net": {"dropout_prob": 0.0}},
        ),
        (
            {"optional_components": [FLAG_CLUSTER]},
            "the cluster component requires the deployment_selector component",
            {"optional_components": [FLAG_CLUSTER, "deployment_selector"]},
        ),
        (
            {"data": {"augment_target": [0.2, 0.3, 0.5]}},
            "data.augment_target requires the heterogeneous_handler component",
            {
                "data": {"augment_target": [0.2, 0.3, 0.5]},
                "optional_components": ["heterogeneous_handler"],
            },
        ),
    ],
    ids=["secure-masking", "monitor-band", "gossip-dropout", "cluster-alone", "augment-alone"],
)
def test_setting_a_run_ignores_is_rejected(raw, message, accepted):
    # each of these ran and gave the bytes of a config without it
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)
    parse_config(accepted)


def test_gossip_links_default_to_lossless():
    assert parse_config(GOSSIP).net.dropout_prob == 0.0
    assert parse_config({}).net.dropout_prob == 0.05


@pytest.mark.parametrize(
    "raw, message, accepted",
    [
        (
            {**GOSSIP, "n_clients": 1},
            "decentralised aggregation needs n_clients >= 2",
            {**GOSSIP, "n_clients": 2},
        ),
        (
            {"aggregation_mode": "secure", "n_clients": 10, "fraction_per_round": 0.1},
            "secure aggregation needs 2 or more clients a round",
            {"aggregation_mode": "secure", "n_clients": 11, "fraction_per_round": 0.1},
        ),
        (
            {"aggregation_mode": "hierarchical", "n_clients": 3, "round": {"min_updates": 4}},
            "round.min_updates cannot exceed n_clients",
            {"aggregation_mode": "hierarchical", "n_clients": 3, "round": {"min_updates": 3}},
        ),
        (
            {
                "data": {"augment_target": [0.5, 0.5, 0.5]},
                "optional_components": ["heterogeneous_handler"],
            },
            r"^data\.augment_target: class weights must sum to 1 within 1e-9$",
            {
                "data": {"augment_target": [0.5, 0.5, 0.0]},
                "optional_components": ["heterogeneous_handler"],
            },
        ),
    ],
    ids=["one-node-ring", "one-secure-participant", "min-updates-past-clients", "augment-sum"],
)
def test_config_that_cannot_run_is_rejected(raw, message, accepted):
    # each of these failed at set-up or minted nothing past g0
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)
    parse_config(accepted)
