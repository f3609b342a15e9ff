"""End-to-end runs of the experiment driver, one small config per behavior."""

import json

import numpy as np
import pytest

from fedsim import wire
from fedsim.config import parse_config
from fedsim.errors import DivergenceError, IntegrityError, SelectionStarvationError
from fedsim.runner import ExperimentRunner, run_experiment

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


def test_loss_improves_over_rounds_on_reliable_network():
    res = run_experiment(_cfg(rounds=4, net={"dropout_prob": 0.0}), None)
    losses = [m["global_loss"] for m in res.metrics]
    assert losses[-1] < losses[0]


def test_every_round_starved_raises():
    cfg = _cfg(selection={"strategy": "uniform_random", "min_samples": 10_000})
    with pytest.raises(SelectionStarvationError):
        run_experiment(cfg, None)


def test_overflowing_learning_rate_raises_divergence():
    cfg = _cfg(
        rounds=2,
        net={"dropout_prob": 0.0},
        hp={"learning_rate": 1e308, "epochs": 2},
    )
    with pytest.raises(DivergenceError):
        run_experiment(cfg, None)


def test_secure_round_matches_plain_average():
    # same seed, loss-free links: masking must not change the aggregate
    # beyond pad cancellation noise
    plain = run_experiment(_cfg(net={"dropout_prob": 0.0}), None)
    masked = run_experiment(
        _cfg(aggregation_mode="secure", net={"dropout_prob": 0.0}), None
    )
    a = plain.version_params["g1"].values
    b = masked.version_params["g1"].values
    assert np.max(np.abs(a - b)) <= 1e-9


def test_masking_flag_without_secure_mode_still_masks():
    # requesting masking on a plain fedavg config must not silently
    # downgrade to cleartext uploads
    res = run_experiment(
        _cfg(secure_masking=True, net={"dropout_prob": 0.0}), None
    )
    for vid in res.ledger.versions()[1:]:
        rec = res.ledger.get(vid)
        assert rec.aggregation_mode == "secure"
        assert all(c.update_kind == wire.K_UPDATE_MASKED for c in rec.contributors)


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
    for vid in ("g1", "g2", "g3"):
        assert (
            flat.version_params[vid].values.tobytes()
            == tiered.version_params[vid].values.tobytes()
        )


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
            "band": 0.3,
            "drift_round": 3,
            "drift_flip_fraction": 0.3,
        },
    )
    out_rows = run_experiment(cfg, None).metrics
    assert [m["triggers"] for m in out_rows] == [0, 0, 0, 1, 0, 0, 1, 0]
    # the clean reporting holdout is immune to the drift
    assert out_rows[3]["global_acc"] == pytest.approx(out_rows[2]["global_acc"], abs=0.05)


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


def test_multitask_freezes_global_head():
    cfg = _cfg(
        init_mode="seeded_uniform",
        arch={"kind": "mlp", "input_dim": 4, "num_classes": 3, "hidden_dim": 8},
        optional_components=["multitask"],
        net={"dropout_prob": 0.0},
    )
    res = run_experiment(cfg, None)
    cut = cfg.arch.shared_parameter_count
    head0 = res.version_params["g0"].values[cut:]
    for vid in res.ledger.versions():
        rec = res.ledger.get(vid)
        if vid != "g0":
            assert rec.update_segment == "body"
        assert np.array_equal(res.version_params[vid].values[cut:], head0)
    body0 = res.version_params["g0"].values[:cut]
    assert not np.array_equal(res.version_params["g3"].values[:cut], body0)


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
    assert (
        base.version_params["g1"].values.tobytes()
        != other.version_params["g1"].values.tobytes()
    )


def test_archive_holds_root_and_contributor_payloads(tmp_path):
    cfg = _cfg(net={"dropout_prob": 0.0}, optional_components=["co_versioning"])
    res = run_experiment(cfg, tmp_path / "run")
    payload_dir = tmp_path / "run" / "payloads"
    stored = {p.stem for p in payload_dir.iterdir()}
    want = {res.ledger.get("g0").params_hash}
    for vid in res.ledger.versions():
        for c in res.ledger.get(vid).contributors:
            want.add(c.payload_hash)
    assert stored == want
    record_lines = (tmp_path / "run" / "ledger.jsonl").read_text().splitlines()
    assert len(record_lines) == len(res.ledger.versions())


def test_archive_rejects_two_payloads_with_one_hash(tmp_path, monkeypatch):
    monkeypatch.setattr(wire, "hash_hex", lambda data: "00000000deadbeef")
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
