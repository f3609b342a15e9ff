"""End-to-end runs of the experiment driver, one small config per behavior."""

import ast
import importlib
import json
import re
import runpy
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim import replay_run, runner, wire
from fedsim.config import parse_config
from fedsim.errors import ConfigError, DivergenceError, IntegrityError, SelectionStarvationError
from fedsim.models import ParameterVector, accuracies, evaluate, seq_sum
from fedsim.runner import ExperimentRunner, run_experiment
from payload_archive import read_blobs

METRIC_KEYS = {
    "round",
    "version_id",
    "global_acc",
    "global_loss",
    "n_selected",
    "n_received",
    "bytes_up",
    "bytes_down",
    "triggers",
}


NON_FINITE = "round {}: parameter vector contains non-finite entries"


def _cfg(**overrides):
    raw = {"rounds": 3, "n_clients": 4, "seed": 7}
    raw.update(overrides)
    return parse_config(raw)


def test_one_metrics_row_per_round():
    res = run_experiment(_cfg(rounds=5), None)
    assert len(res.metrics) == 5
    assert [m["round"] for m in res.metrics] == [0, 1, 2, 3, 4]


def test_metrics_rows_have_exactly_the_expected_keys():
    res = run_experiment(_cfg(), None)
    for row in res.metrics:
        assert set(row) == METRIC_KEYS


def test_reliable_network_receives_every_selected_client():
    res = run_experiment(_cfg(net={"dropout_prob": 0.0}), None)
    for row in res.metrics:
        assert row["n_received"] == row["n_selected"] == 4
    assert res.final_version_id == "g3"


def test_all_broadcasts_dropped_leaves_root_model():
    res = run_experiment(_cfg(rounds=2, net={"dropout_prob": 0.999999}), None)
    assert res.final_version_id == "g0"
    assert all(m["n_received"] == 0 for m in res.metrics)
    assert all(m["version_id"] == "g0" for m in res.metrics)


def _answered(events, r, deadline_s=None):
    """The clients whose upload reached the server in round r, read off the
    message events: directly, or through an edge whose forward arrived by
    the deadline."""
    msgs = [e for e in events if e["event"] == "message" and e["round"] == r]
    start = min(e["sent_at"] for e in msgs if e["kind"] == "broadcast")
    cutoff = float("inf") if deadline_s is None else start + deadline_s
    arrived = [
        e for e in msgs
        if e["outcome"] == "delivered"
        and (e["receiver"] != wire.SERVER_SENDER or e["delivered_at"] <= cutoff)
    ]
    edges = {e["sender"] for e in arrived if e["kind"] == "edge_update"}
    return sorted(
        e["sender"] for e in arrived
        if e["kind"] in ("update", "masked_update")
        and (e["receiver"] == wire.SERVER_SENDER or e["receiver"] in edges)
    )


@pytest.mark.parametrize(
    "raw, rounds, n_selected, reasons",
    [
        (
            {"n_clients": 4, "round": {"min_updates": 4}, "net": {"dropout_prob": 0.3}},
            3, 4, ["too few updates"],
        ),
        (
            {"aggregation_mode": "secure", "n_clients": 6, "net": {"dropout_prob": 0.3}},
            3, 6, ["secure_abort", "masking participant lost"],
        ),
        (
            {"aggregation_mode": "hierarchical", "n_clients": 6, "round": {"deadline_s": 0.05}},
            2, 6, ["no surviving edge groups"],
        ),
        (
            {
                "aggregation_mode": "hierarchical",
                "n_clients": 6,
                "round": {"min_updates": 6},
                "net": {"dropout_prob": 0.2},
            },
            2, 6, ["too few updates"],
        ),
    ],
    ids=["fedavg-min-updates", "secure-abort", "hierarchical-deadline", "hierarchical-min-updates"],
)
def test_failed_round_logs_why_and_drops_nonresponders(
    raw, rounds, n_selected, reasons
):
    run = ExperimentRunner(parse_config({**raw, "seed": 0, "rounds": rounds}))
    res = run.run()
    assert res.ledger.versions() == ("g0",)
    assert [(m["n_selected"], m["n_received"]) for m in res.metrics] == [(n_selected, 0)] * rounds
    assert len(res.round_failures) == rounds
    deadline = raw.get("round", {}).get("deadline_s")
    for r in range(rounds):
        ends = [
            e["client_id"] if e["event"] == "registry"
            else e["reason"] if e["event"] == "round_failed"
            else e["event"]
            for e in run.events
            if e["round"] == r
            and (e["event"] in ("secure_abort", "round_failed") or e.get("change") == "dropped")
        ]
        # an upload that arrived is neither archived nor credited, and its
        # client is not dropped
        answered = _answered(run.events, r, deadline)
        assert ends == reasons + sorted(set(range(n_selected)) - set(answered))
    assert all(rec.rounds_participated == 0 for rec in run.registry.records())


def test_failed_round_drops_the_clients_whose_update_did_not_arrive():
    # at seed 0, 2, 3 and 1 of the 4 updates arrive in rounds 0-2, each too
    # few for min_updates 4
    raw = {"n_clients": 4, "rounds": 3, "round": {"min_updates": 4}, "net": {"dropout_prob": 0.3}}
    run = ExperimentRunner(parse_config({**raw, "seed": 0}))
    res = run.run()
    assert [e["reason"] for e in res.round_failures] == ["too few updates"] * 3
    dropped = [
        [e["client_id"] for e in run.events if e.get("change") == "dropped" and e["round"] == r]
        for r in range(3)
    ]
    assert dropped == [[1, 2], [3], [1, 2, 3]]
    assert [_answered(run.events, r) for r in range(3)] == [[0, 3], [0, 1, 2], [0]]
    assert all(rec.rounds_participated == 0 for rec in run.registry.records())


def test_loss_improves_over_rounds_on_reliable_network():
    res = run_experiment(_cfg(rounds=4, net={"dropout_prob": 0.0}), None)
    losses = [m["global_loss"] for m in res.metrics]
    assert losses[-1] < losses[0]


def test_every_round_starved_raises():
    cfg = _cfg(
        optional_components=["selector"],
        selection={"strategy": "uniform_random", "min_samples": 10_000},
    )
    with pytest.raises(SelectionStarvationError):
        run_experiment(cfg, None)


@pytest.mark.parametrize(
    "raw, smallest",
    [
        ({"data": {"samples_per_client": 20}}, 16),
        ({"n_clients": 8, "data": {"partition": {"mode": "quantity_skew", "sigma": 1.0}}}, 15),
    ],
)
def test_batch_larger_than_smallest_shard_is_rejected_at_setup(raw, smallest):
    # shard sizes exist only after partitioning, so the runner checks them
    # before anything trains
    with pytest.raises(ConfigError, match=rf"hp\.batch_size 20 exceeds .* \({smallest} samples"):
        ExperimentRunner(parse_config(raw))


HUGE_NOISE = {"n_clients": 3, "rounds": 2, "data": {"noise_sigma": 1e300}}


def test_feature_moments_past_float64_are_a_named_config_error():
    # the z-score moments overflow; training on the zeros they leave is no run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"data\.noise_sigma, data\.class_mean_scale"):
            ExperimentRunner(parse_config(HUGE_NOISE))


@pytest.mark.parametrize(
    "keys",
    [["class_mean_scale"], ["noise_sigma"], ["class_mean_scale", "noise_sigma"]],
    ids="+".join,
)
def test_raw_features_past_float64_are_a_named_config_error(keys):
    # the class means, the noise or their sum leave float64 before any moment is taken
    raw = {"n_clients": 3, "rounds": 2, "data": dict.fromkeys(keys, 1e308)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"data\.noise_sigma, data\.class_mean_scale"):
            ExperimentRunner(parse_config(raw))


def test_quantity_skew_counts_past_int64_stop_the_run():
    raw = {
        "n_clients": 4,
        "rounds": 1,
        "data": {"partition": {"mode": "quantity_skew", "sigma": 1000}},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"data\.partition\.sigma, data\.samples_per_client"):
            ExperimentRunner(parse_config(raw))


def test_quantity_skew_counts_past_the_partition_budget_stop_the_run():
    # the counts fit int64 but not in memory; the parent raised MemoryError
    raw = {
        "n_clients": 4,
        "rounds": 1,
        "data": {"partition": {"mode": "quantity_skew", "sigma": 20.0}},
    }
    with pytest.raises(ConfigError, match=r"data\.partition\.sigma: .* GiB of features"):
        ExperimentRunner(parse_config(raw))


def _merge_overflowing_from_wave(wave):
    """An async merge that leaves float64 range from `wave` on, as a merge of
    two huge updates that pull in opposite directions does."""
    real = runner.async_merge

    def merge(global_params, update, current_round, *rest):
        if current_round >= wave:
            update = ParameterVector(update.values / np.abs(update.values).max() * 1e308)
            global_params = ParameterVector(-update.values)
        return real(global_params, update, current_round, *rest)

    return merge


@pytest.mark.parametrize(
    "overrides, merge_overflows_from, message",
    [
        ({"hp": {"learning_rate": 1e308, "epochs": 2}}, None, "round 0: every training client"),
        ({"hp": {"learning_rate": 1e307}}, None, NON_FINITE.format(0)),
        (
            {
                "aggregation_mode": "hierarchical",
                "hierarchy": {"n_edges": 2},
                "hp": {"learning_rate": 1e307},
            },
            None,
            NON_FINITE.format(0),
        ),
        (
            {"aggregation_mode": "secure", "hp": {"learning_rate": 1e307}},
            None,
            NON_FINITE.format(0),
        ),
        (
            # here one client's weighted update already leaves float64
            {"aggregation_mode": "secure", "hp": {"learning_rate": 3e307}},
            None,
            NON_FINITE.format(0),
        ),
        ({"aggregation_mode": "async"}, 1, NON_FINITE.format(1)),
    ],
    ids=["training", "fedavg", "hierarchical", "secure", "secure-weighting", "async"],
)
def test_overflowing_learning_rate_raises_divergence(
    overrides, merge_overflows_from, message, monkeypatch
):
    # each client's update is finite; their aggregate is not
    if merge_overflows_from is not None:
        merge = _merge_overflowing_from_wave(merge_overflows_from)
        monkeypatch.setattr(runner, "async_merge", merge)
    cfg = _cfg(rounds=2, net={"dropout_prob": 0.0}, **overrides)
    with pytest.raises(DivergenceError, match=f"^{message}"):
        run_experiment(cfg, None)


COMPRESSION_OVERFLOW = {
    "seed": 1,
    "rounds": 2,
    "n_clients": 4,
    "aggregation_mode": "async",
    "init_mode": "seeded_uniform",
    "arch": {"kind": "mlp", "input_dim": 4, "num_classes": 3, "hidden_dim": 6},
    "async": {"alpha0": 0.99, "decay": 0.0, "round_interval_s": 0.001},
    "net": {"dropout_prob": 0.0},
    "hp": {"learning_rate": 1.7e308, "batch_size": 32},
    "data": {"partition": {"mode": "dirichlet_label_skew", "alpha": 0.1}},
    "optional_components": ["compressor"],
}


def test_compression_overflow_withholds_the_client_as_divergence(tmp_path):
    # clients 0, 1 and 3 train to finite models whose delta's largest kept
    # magnitude m exceeds half the float64 range, so the quantizer's 2m does not
    run = ExperimentRunner(parse_config(COMPRESSION_OVERFLOW), tmp_path / "run")
    res = run.run()
    withheld = [
        (e["round"], e["client_id"], e["reason"]) for e in run.events if e["event"] == "withheld"
    ]
    assert withheld == [(r, cid, "divergence") for r in (0, 1) for cid in (0, 1, 3)]
    assert res.final_version_id == "g2"


def _strict_json(line):
    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    return json.loads(line, parse_constant=reject)


def _null_if_not_finite(row):
    return {
        k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in row.items()
    }


@pytest.mark.parametrize("components", [["compressor"], []], ids=["compressor", "dense"])
def test_jsonl_artifacts_are_strict_json_with_non_finite_as_null(tmp_path, components):
    # the last global loss is +inf, and without the compressor so are the
    # clients' local losses
    out = tmp_path / "run"
    raw = {**COMPRESSION_OVERFLOW, "optional_components": components}
    run = ExperimentRunner(parse_config(raw), out)
    res = run.run()
    assert res.metrics[-1]["global_loss"] == float("inf")
    for name, rows in (("metrics.jsonl", res.metrics), ("event_log.jsonl", run.events)):
        written = [_strict_json(line) for line in (out / name).read_text().splitlines()]
        assert written == [_null_if_not_finite(row) for row in rows]
    # a compressed client whose update overflows is withheld before it logs a loss
    inf_losses = [e for e in written if e["event"] == "local_train" and e["loss"] is None]
    assert bool(inf_losses) == (components == [])


def test_ledger_and_registry_are_strict_json_and_still_replay(tmp_path):
    # the dense clients' local losses are +inf, and the ledger and registry
    # record them
    out = tmp_path / "run"
    raw = {**COMPRESSION_OVERFLOW, "optional_components": ["co_versioning", "registry", "incentives"]}
    run = ExperimentRunner(parse_config(raw), out)
    res = run.run()
    written = {
        path.name: [_strict_json(line) for line in path.read_text().splitlines()]
        for path in sorted(out.glob("*.jsonl"))
    }
    assert {"ledger.jsonl", "registry.jsonl", "incentives.jsonl"} <= set(written)
    losses = [c.loss for v in res.ledger.versions() for c in res.ledger.get(v).contributors]
    assert float("inf") in losses
    assert [c["loss"] for row in written["ledger.jsonl"] for c in row["contributors"]] == [
        None if not np.isfinite(loss) else loss for loss in losses
    ]
    evals = [row["last_local_eval"] for row in written["registry.jsonl"]]
    assert any(e is not None and e["loss"] is None for e in evals)
    checks = replay_run(out / "ledger.jsonl", out / "payloads")
    assert [c.status for c in checks] == ["MATCH"] * len(res.ledger)


@pytest.mark.parametrize("with_out_dir", [False, True], ids=["in-memory", "out-dir"])
def test_two_payloads_under_one_hash_raise(tmp_path, monkeypatch, with_out_dir):
    # every blob hashes alike, so the first upload collides with the root
    monkeypatch.setattr(wire, "content_hash", lambda blob: "0" * 16)
    cfg = _cfg(optional_components=["co_versioning"])
    with pytest.raises(IntegrityError, match=r"^two different payloads hash to \[0{16}\]$"):
        run_experiment(cfg, tmp_path / "run" if with_out_dir else None)


def test_payloads_are_written_as_archived_and_not_held(tmp_path):
    out = tmp_path / "run"
    run = ExperimentRunner(_cfg(optional_components=["co_versioning"]), out)
    run.run()
    files = read_blobs(out / "payloads")
    assert set(files) == set(run._archive)
    assert all(wire.content_hash(blob) == name for name, blob in files.items())
    assert all(len(check) == 32 for check in run._archive.values())


def test_diverged_run_leaves_the_payloads_it_archived(tmp_path):
    raw = {"rounds": 3, "n_clients": 8, "hp": {"learning_rate": 1e308, "batch_size": 5}}
    out = tmp_path / "run"
    run = ExperimentRunner(parse_config({**raw, "optional_components": ["co_versioning"]}), out)
    with pytest.raises(DivergenceError):
        run.run()
    assert len(run.ledger) > 1  # versions were minted before the failure
    records = [run.ledger.get(v) for v in run.ledger.versions()]
    named = {records[0].params_hash} | {c.payload_hash for r in records for c in r.contributors}
    files = read_blobs(out / "payloads")
    assert named <= set(files)
    assert all(wire.content_hash(blob) == name for name, blob in files.items())


def test_diverged_run_leaves_its_config(tmp_path):
    raw = {"rounds": 3, "n_clients": 8, "hp": {"learning_rate": 1e308, "batch_size": 5}}
    cfg = parse_config(raw)
    with pytest.raises(DivergenceError):
        run_experiment(cfg, tmp_path / "run")
    written = (tmp_path / "run" / "config.json").read_text()
    assert written == json.dumps(cfg.canonical, sort_keys=True, indent=2) + "\n"


PROBE_OVERFLOW = {
    "rounds": 2, "n_clients": 5,
    "arch": {"kind": "mlp", "input_dim": 1, "hidden_dim": 1, "num_classes": 2},
    "hp": {"learning_rate": 1e308, "batch_size": 1},
    "data": {"samples_per_client": 27}, "net": {"dropout_prob": 0.0},
    "optional_components": ["cluster", "deployment_selector"],
    "cluster": {"k": 2, "feature_source": "update_direction"},
}


@pytest.mark.parametrize("seed", [5, 1])
def test_overflowing_cluster_probe_is_divergence_and_leaves_its_config(tmp_path, seed):
    # the probe's update directions are finite, but centring them or taking
    # their norms leaves float64: at seed 5 k-means++ drew from NaN weights,
    # at seed 1 every client fell into cluster 0
    cfg = parse_config({**PROBE_OVERFLOW, "seed": seed})
    message = r"^cluster probe: overflow encountered in \w+ while centring$"
    with pytest.raises(DivergenceError, match=message):
        run_experiment(cfg, tmp_path / "run")
    written = (tmp_path / "run" / "config.json").read_text()
    assert written == json.dumps(cfg.canonical, sort_keys=True, indent=2) + "\n"


def _run_minting(cfg):
    """Run `cfg`; its result and every version's params by id, g0 included,
    recorded as the runner mints them (it holds only the live one)."""
    run = ExperimentRunner(cfg)
    minted = dict(run.version_params)
    mint = run._mint

    def recording(*args):
        mint(*args)
        minted.update(run.version_params)

    run._mint = recording
    return run.run(), minted


def _params_hashes(res, vids):
    return [res.ledger.get(vid).params_hash for vid in vids]


def test_secure_round_matches_plain_average():
    # same seed, loss-free links: masking must not change the aggregate
    # beyond pad cancellation noise
    _, plain = _run_minting(_cfg(net={"dropout_prob": 0.0}))
    _, masked = _run_minting(_cfg(aggregation_mode="secure", net={"dropout_prob": 0.0}))
    a = plain["g1"].values
    b = masked["g1"].values
    assert np.max(np.abs(a - b)) <= 1e-9


def test_masking_flag_without_secure_mode_is_an_unknown_key():
    # masking is spelled aggregation_mode secure, and only so
    with pytest.raises(ConfigError, match="^unknown config key secure_masking$"):
        _cfg(secure_masking=True, net={"dropout_prob": 0.0})


def test_single_edge_hierarchy_is_bitwise_flat():
    flat = run_experiment(_cfg(net={"dropout_prob": 0.0}), None)
    tiered = run_experiment(
        _cfg(
            aggregation_mode="hierarchical",
            hierarchy={"n_edges": 1},
            net={"dropout_prob": 0.0},
        ),
        None,
    )
    vids = ("g1", "g2", "g3")
    assert _params_hashes(flat, vids) == _params_hashes(tiered, vids)


def test_hierarchical_detail_lists_groups():
    res = run_experiment(
        _cfg(
            aggregation_mode="hierarchical",
            hierarchy={"n_edges": 2},
            net={"dropout_prob": 0.0},
        ),
        None,
    )
    rec = res.ledger.get("g1")
    groups = dict((g, tuple(members)) for g, members in rec.detail["groups"])
    assert groups == {0: (0, 2), 1: (1, 3)}


def test_gossip_version_is_node_mean_and_all_participate():
    res = run_experiment(
        _cfg(aggregation_mode="decentralised", gossip={"steps_per_round": 2}),
        None,
    )
    for row in res.metrics:
        assert row["n_selected"] == row["n_received"] == 4
    rec = res.ledger.get("g1")
    assert rec.detail["steps"] == 2
    assert len(rec.contributors) == 4
    assert sorted(tuple(e) for e in rec.detail["edges"]) == [
        (0, 1),
        (0, 3),
        (1, 2),
        (2, 3),
    ]


def test_async_mints_one_version_per_arrival():
    res = run_experiment(
        _cfg(aggregation_mode="async", net={"dropout_prob": 0.0}), None
    )
    vids = [v for v in res.ledger.versions() if v != "g0"]
    assert len(vids) == sum(m["n_received"] for m in res.metrics) == 12
    for vid in vids:
        rec = res.ledger.get(vid)
        assert len(rec.contributors) == 1
        assert set(rec.detail) == {"alpha0", "decay", "current_round", "base_round"}
        assert rec.detail["base_round"] <= rec.detail["current_round"]


def test_async_stale_merge_shrinks_step():
    # arrivals land waves after their base version under a long latency
    res = run_experiment(
        _cfg(
            aggregation_mode="async",
            net={"dropout_prob": 0.0, "latency_ms_min": 200.0, "latency_ms_max": 300.0},
            **{"async": {"round_interval_s": 0.05}},
        ),
        None,
    )
    staleness = [
        res.ledger.get(v).detail["current_round"] - res.ledger.get(v).detail["base_round"]
        for v in res.ledger.versions()
        if v != "g0"
    ]
    assert max(staleness) >= 1


def test_drift_trips_monitor_then_boosts_next_round():
    cfg = _cfg(
        rounds=8,
        net={"dropout_prob": 0.0},
        optional_components=["monitor"],
        monitor={
            "window": 2,
            "threshold": 0.9,
            "cooldown_rounds": 2,
            "drift_round": 3,
            "drift_flip_fraction": 0.3,
        },
    )
    out_rows = run_experiment(cfg, None).metrics
    assert [m["triggers"] for m in out_rows] == [0, 0, 0, 1, 0, 0, 1, 0]
    # the clean reporting holdout is immune to the drift
    assert out_rows[3]["global_acc"] == pytest.approx(out_rows[2]["global_acc"], abs=0.05)


def test_drift_flips_the_labels_of_the_shard_each_client_trains_on():
    cfg = _cfg(
        rounds=4,
        optional_components=["monitor"],
        monitor={"drift_round": 2, "drift_flip_fraction": 0.5},
    )
    run = ExperimentRunner(cfg)
    before = {cid: rt.shard for cid, rt in run.runtimes.items()}
    run.run()
    for cid, rt in run.runtimes.items():
        for got, was in ((rt.shard.train, before[cid].train), (rt.shard.test, before[cid].test)):
            assert got.features is was.features
            assert not np.array_equal(got.labels, was.labels)


def test_monitor_stream_is_built_and_drifted_only_under_the_monitor():
    # parse_config takes drift settings only with the monitor; a config built
    # without it still drifts every client's shard as a monitored run does
    monitored = _cfg(
        rounds=3,
        optional_components=["monitor"],
        monitor={"drift_round": 1, "drift_flip_fraction": 0.5},
    )
    runs = [ExperimentRunner(c) for c in (monitored, replace(monitored, flags=frozenset()))]
    assert runs[0].monitor_stream is not None
    assert runs[1].monitor_stream is None
    for run in runs:
        run.run()
    for a, b in zip(runs[0].runtimes.values(), runs[1].runtimes.values()):
        assert np.array_equal(a.shard.train.labels, b.shard.train.labels)
        assert np.array_equal(a.shard.test.labels, b.shard.test.labels)


def test_incentive_total_matches_minted_versions(tmp_path):
    cfg = _cfg(
        net={"dropout_prob": 0.0},
        optional_components=["incentives"],
        incentives={"rate_per_round": 2.5},
    )
    res = run_experiment(cfg, tmp_path / "run")
    rows = [
        json.loads(line)
        for line in (tmp_path / "run" / "incentives.jsonl").read_text().splitlines()
    ]
    minted = len(res.ledger.versions()) - 1
    assert sum(r["amount"] for r in rows) == pytest.approx(2.5 * minted)
    for r in rows:
        assert r["rate"] == 2.5
    # by client, and each client's rows in the rounds they accrued
    keys = [(r["client_id"], r["round"]) for r in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_registry_artifact_counts_participation(tmp_path):
    cfg = _cfg(net={"dropout_prob": 0.0}, optional_components=["registry"])
    res = run_experiment(cfg, tmp_path / "run")
    rows = [
        json.loads(line)
        for line in (tmp_path / "run" / "registry.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 4
    total = sum(r["rounds_participated"] for r in rows)
    assert total == sum(m["n_received"] for m in res.metrics)
    assert all(r["status"] == "active" for r in rows)


def test_deployments_record_local_accuracy(tmp_path):
    run_experiment(_cfg(net={"dropout_prob": 0.0}), tmp_path / "run")
    rows = [
        json.loads(line)
        for line in (tmp_path / "run" / "deployments.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 3
    for r in rows:
        assert r["n_targets"] == 4
        assert 0.0 <= r["local_acc_mean"] <= 1.0
        assert r["selector"] is False


CLUSTER_ROUTED = {
    "rounds": 2, "n_clients": 8, "seed": 11, "net": {"dropout_prob": 0.0},
    "arch": {"kind": "mlp", "input_dim": 4, "hidden_dim": 3, "num_classes": 2},
    "init_mode": "seeded_uniform",
    "data": {"partition": {"mode": "dirichlet_label_skew", "alpha": 0.1}},
    "optional_components": ["cluster", "deployment_selector"],
    "cluster": {"k": 2, "feature_source": "label_distribution"},
}


LABEL_SKEWED_HANDLER = {
    "n_clients": 4,
    "rounds": 1,
    "optional_components": ["heterogeneous_handler"],
    "data": {"partition": {"mode": "dirichlet_label_skew", "alpha": 0.1}},
}


def test_heterogeneous_handler_balances_label_skewed_shards_over_their_own_classes():
    # with no augment_target, each shard is balanced over the classes it holds
    run = ExperimentRunner(parse_config(LABEL_SKEWED_HANDLER))
    shards = [rt.shard for rt in run.runtimes.values()]
    counts = [np.bincount(s.train.labels, minlength=s.train.num_classes) for s in shards]
    assert any(0 in c for c in counts)
    for c in counts:
        held = c[c > 0]
        assert max(held) - min(held) <= 0.1 * sum(held)
    assert run.run().final_version_id == "g1"


def test_augment_target_on_a_class_a_shard_lacks_names_key_and_client():
    raw = dict(LABEL_SKEWED_HANDLER)
    raw["data"] = {**raw["data"], "augment_target": [1 / 3] * 3}
    with pytest.raises(ConfigError, match=r"^data\.augment_target: .* client 0 "):
        ExperimentRunner(parse_config(raw))


def test_cluster_routed_deploy_accuracies_equal_evaluate(tmp_path, monkeypatch):
    # each target is scored on the model of its cluster, as evaluate scores it
    returned = []

    def recording(cases):
        accs = accuracies(cases)
        returned.append(accs)
        return accs

    monkeypatch.setattr(runner, "accuracies", recording)
    cfg = parse_config(CLUSTER_ROUTED)
    run = ExperimentRunner(cfg, tmp_path / "run")
    run.run()
    assert len(returned) == len(run.deployment_rows) == 2
    targets = run.registry.active_ids()
    models = [run.cluster_models[run.cluster_assignment[t]] for t in targets]
    assert len({m.values.tobytes() for m in models}) == 2
    want = [
        evaluate(m, cfg.arch, run.runtimes[t].shard.test).accuracy
        for m, t in zip(models, targets)
    ]
    assert returned[-1] == want
    assert run.deployment_rows[-1]["local_acc_mean"] == seq_sum(want) / len(want)


def _held_after_each_round(run, skip=()):
    """The count of ParameterVectors in the runner's dict attributes, but
    those named in `skip`, appended after each _post_round."""
    post_round = run._post_round
    held = []

    def counting(r):
        post_round(r)
        held.append(
            sum(
                isinstance(v, ParameterVector)
                for name, store in vars(run).items()
                if isinstance(store, dict) and name not in skip
                for v in store.values()
            )
        )

    run._post_round = counting
    return held


def test_cluster_models_held_stay_at_cluster_k_however_long_the_run():
    # the runner keeps one model per cluster, not one per cluster and round;
    # the live version is counted apart, in version_params, which holds it alone
    cfg = parse_config({**CLUSTER_ROUTED, "rounds": 12})
    run = ExperimentRunner(cfg)
    held = _held_after_each_round(run, skip={"version_params"})
    run.run()
    assert len(run.version_params) == 1
    assert held == [cfg.cluster_k] * 12


@pytest.mark.parametrize("waves", [3, 12])
def test_async_run_holds_the_live_version_alone_however_many_waves(waves):
    # stale arrivals merge against the base their update carries, so no
    # older version stays held for them
    cfg = _cfg(
        rounds=waves,
        aggregation_mode="async",
        net={"dropout_prob": 0.0, "latency_ms_min": 200.0, "latency_ms_max": 300.0},
        **{"async": {"round_interval_s": 0.05}},
    )
    run = ExperimentRunner(cfg)
    held = _held_after_each_round(run)
    res = run.run()
    assert len(res.ledger) == 1 + sum(m["n_received"] for m in res.metrics) > waves
    assert held == [1] * waves
    assert len(run.version_params) == 1


def test_multitask_freezes_global_head():
    cfg = _cfg(
        init_mode="seeded_uniform",
        arch={"kind": "mlp", "input_dim": 4, "num_classes": 3, "hidden_dim": 8},
        optional_components=["multitask"],
        net={"dropout_prob": 0.0},
    )
    res, minted = _run_minting(cfg)
    cut = cfg.arch.shared_parameter_count
    head0 = minted["g0"].values[cut:]
    for vid in res.ledger.versions():
        rec = res.ledger.get(vid)
        if vid != "g0":
            assert rec.update_segment == "body"
        assert np.array_equal(minted[vid].values[cut:], head0)
    body0 = minted["g0"].values[:cut]
    assert not np.array_equal(minted["g3"].values[:cut], body0)


def test_event_log_reproduces_byte_counters(tmp_path):
    for mode in ("fedavg", "decentralised"):
        out = tmp_path / mode
        res = run_experiment(_cfg(aggregation_mode=mode), out)
        events = [
            json.loads(line)
            for line in (out / "event_log.jsonl").read_text().splitlines()
        ]
        for row in res.metrics:
            up = sum(
                e["bytes"]
                for e in events
                if e["event"] == "message"
                and e["round"] == row["round"]
                and e["sender"] != wire.SERVER_SENDER
            )
            down = sum(
                e["bytes"]
                for e in events
                if e["event"] == "message"
                and e["round"] == row["round"]
                and e["sender"] == wire.SERVER_SENDER
            )
            assert (up, down) == (row["bytes_up"], row["bytes_down"])


def test_compressed_payloads_shrink_uploads():
    dense = run_experiment(_cfg(net={"dropout_prob": 0.0}), None)
    packed = run_experiment(
        _cfg(
            net={"dropout_prob": 0.0},
            optional_components=["compressor"],
            compression={"top_k": 0.1, "bits": 8},
        ),
        None,
    )
    assert packed.metrics[0]["bytes_up"] < dense.metrics[0]["bytes_up"]
    assert packed.metrics[0]["n_received"] == 4


def test_two_runs_are_byte_identical(tmp_path):
    raw = {
        "rounds": 4,
        "n_clients": 5,
        "seed": 3,
        "optional_components": ["registry", "co_versioning", "incentives", "monitor"],
        "net": {"dropout_prob": 0.2},
    }
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(parse_config(raw), out)
        outs.append(out)
    a, b = outs
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert rel_a == rel_b
    for rel in rel_a:
        if rel.name == "run_meta.json":
            continue
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)


def test_seed_changes_the_trajectory():
    base = run_experiment(_cfg(), None)
    other = run_experiment(_cfg(seed=8), None)
    assert _params_hashes(base, ["g1"]) != _params_hashes(other, ["g1"])


def test_archive_holds_root_and_contributor_payloads(tmp_path):
    cfg = _cfg(net={"dropout_prob": 0.0}, optional_components=["co_versioning"])
    res = run_experiment(cfg, tmp_path / "run")
    payload_dir = tmp_path / "run" / "payloads"
    stored = set(read_blobs(payload_dir))
    want = {res.ledger.get("g0").params_hash}
    for vid in res.ledger.versions():
        for c in res.ledger.get(vid).contributors:
            want.add(c.payload_hash)
    assert stored == want
    record_lines = (tmp_path / "run" / "ledger.jsonl").read_text().splitlines()
    assert len(record_lines) == len(res.ledger.versions())


def test_archive_rejects_two_payloads_with_one_hash(tmp_path, monkeypatch):
    monkeypatch.setattr(wire, "content_hash", lambda data: "00000000deadbeef")
    cfg = _cfg(net={"dropout_prob": 0.0}, optional_components=["co_versioning"])
    with pytest.raises(IntegrityError, match="00000000deadbeef"):
        run_experiment(cfg, tmp_path / "run")


def test_run_without_co_versioning_holds_no_payload_blobs(tmp_path):
    plain = ExperimentRunner(_cfg(net={"dropout_prob": 0.0}), tmp_path / "plain")
    res = plain.run()
    assert plain._archive == {}
    assert not (tmp_path / "plain" / "payloads").exists()
    # the ledger still carries every content hash a versioned run records
    versioned = run_experiment(
        _cfg(net={"dropout_prob": 0.0}, optional_components=["co_versioning"]), None
    )
    assert [res.ledger.get(v) for v in res.ledger.versions()] == [
        versioned.ledger.get(v) for v in versioned.ledger.versions()
    ]
    assert res.metrics == versioned.metrics


def test_benchmark_trace_sites_resolve():
    # the benchmark tracer rebinds these import sites; a refactor that drops
    # one should fail here, not only in the slower benchmark self-test
    spans = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "spans.py"))
    for name, module_name, attr, _ in spans["SITES"]:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_secure_round_calls_every_traced_site(monkeypatch):
    # the benchmark times these at fedsim.runner; a refactor that stops
    # calling one should fail here, not only in the benchmark self-test
    calls = Counter()

    def counting(name):
        inner = getattr(runner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in ("pairwise_pads", "mask_submission", "evaluate"):
        monkeypatch.setattr(runner, name, counting(name))
    cfg = _cfg(
        rounds=1, n_clients=6, aggregation_mode="secure", net={"dropout_prob": 0.0},
        optional_components=["monitor"],
    )
    res = run_experiment(cfg, None)
    participants = res.metrics[0]["n_received"]
    assert participants >= 2
    assert calls["pairwise_pads"] == 1
    assert calls["mask_submission"] == participants
    assert calls["evaluate"] >= 1


# definitions kept although nothing in src/ or bench/ calls them
KEPT_WITHOUT_CALLER = {
    "load_checkpoint": "the public reader of a run's checkpoint artifact",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(tree):
    """ast.walk, without the inside of KEPT_WITHOUT_CALLER definitions."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not (isinstance(node, _DEFINITIONS) and node.name in KEPT_WITHOUT_CALLER):
            stack.extend(ast.iter_child_nodes(node))


def _references(tree) -> tuple[Counter, Counter]:
    """What a tree refers to, as (identifiers, members). Members are
    attributes and the parts of dotted-name strings such as the
    benchmark's trace sites."""
    names, members = Counter(), Counter()
    for node in _walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            members[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                members.update(node.value.split("."))
    return names, members


def test_every_definition_has_a_caller_outside_tests():
    # no function is kept only for its own tests. A method is reached only
    # through a member, so a local variable of the same name is no caller.
    root = Path(__file__).parents[1]
    src = sorted((root / "src" / "fedsim").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src + sorted(root.glob("bench/*.py"))}
    names, members = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_members = _references(tree)
        names += tree_names
        members += tree_members
    uncalled = []
    for path in src:
        owner = {}
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.ClassDef):
                owner.update((child, f"{node.name}.") for child in node.body)
        for node in _walk(trees[path]):
            if not isinstance(node, _DEFINITIONS):
                continue
            name = node.name
            exempt = re.fullmatch(r"__\w+__", name) or name in fedsim.__all__
            if exempt or name in KEPT_WITHOUT_CALLER:
                continue
            own_names, own_members = _references(node)
            callers = members[name] - own_members[name]
            if node not in owner:
                callers += names[name] - own_names[name]
            if callers == 0:
                uncalled.append(f"{path.stem}.{owner.get(node, '')}{name}")
    assert uncalled == []


def test_every_import_is_used():
    # package re-exports and __future__ switches are imported for their effect
    root = Path(__file__).parents[1]
    paths = sorted((root / "src" / "fedsim").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        # read: loaded, not only bound or deleted
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(root)}: {name}")
    assert unused == []
