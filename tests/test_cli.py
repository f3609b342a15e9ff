"""CLI exit codes, artifact routing, and the report cross-check."""

import csv
import json
import warnings

import pytest

from fedsim.cli import main
from fedsim.errors import IntegrityError
from fedsim.report import build_report
from payload_archive import flip_byte
from test_runner import PROBE_OVERFLOW


def _write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


BASE = {"rounds": 3, "n_clients": 4, "seed": 7}


def test_run_writes_artifacts_and_exits_zero(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "metrics.jsonl").is_file()
    stdout = capsys.readouterr().out
    assert "3 rounds" in stdout


def test_run_that_aggregates_no_round_warns_and_exits_zero(tmp_path, capsys):
    # one client clears the resource bar, so no secure round has two maskers
    cfg = _write_config(
        tmp_path,
        {
            "n_clients": 4,
            "rounds": 2,
            "aggregation_mode": "secure",
            "optional_components": ["selector"],
            "selection": {"min_resource": 0.5},
        },
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert "2 rounds, 0 aggregated, final g0" in captured.out
    assert captured.err.splitlines() == [
        "warning: no round aggregated, so the model is the initial one; "
        "round 0 failed: fewer than 2 masking participants"
    ]


def test_run_that_aggregates_prints_no_warning(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert "3 rounds, 3 aggregated, final g3" in captured.out
    assert captured.err == ""


def test_out_dir_env_var_is_the_fallback(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, BASE)
    monkeypatch.setenv("FEDSIM_OUT_DIR", str(tmp_path / "env_runs"))
    assert main(["run", "--config", str(cfg)]) == 0
    runs = list((tmp_path / "env_runs").iterdir())
    assert len(runs) == 1
    assert (runs[0] / "metrics.jsonl").is_file()


def test_seed_override_changes_run_id(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, BASE)
    monkeypatch.setenv("FEDSIM_OUT_DIR", str(tmp_path / "runs"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "8"]) == 0
    assert len(list((tmp_path / "runs").iterdir())) == 2


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**BASE, "fraction_per_round": 0})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_batch_larger_than_a_shard_exits_two(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"n_clients": 8, "data": {"partition": {"mode": "quantity_skew", "sigma": 1.0}}}
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: hp.batch_size 20 exceeds" in capsys.readouterr().err


def test_overflowing_feature_moments_exit_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"n_clients": 3, "rounds": 2, "data": {"noise_sigma": 1e300}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: data.noise_sigma, data.class_mean_scale" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["class_mean_scale", "noise_sigma"])
def test_raw_features_past_float64_exit_two(tmp_path, capsys, key):
    cfg = _write_config(tmp_path, {"n_clients": 3, "rounds": 2, "data": {key: 1e308}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: data.noise_sigma, data.class_mean_scale" in err
    assert not (tmp_path / "o").exists()


def test_quantity_skew_past_the_partition_budget_exits_two(tmp_path, capsys):
    skew = {"partition": {"mode": "quantity_skew", "sigma": 20.0}}
    cfg = _write_config(tmp_path, {"n_clients": 4, "rounds": 1, "data": skew})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: data.partition.sigma" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unreadable_config_exits_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_starved_selection_exits_three(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            **BASE,
            "optional_components": ["selector"],
            "selection": {"strategy": "uniform_random", "min_samples": 10_000},
        },
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "starved" in capsys.readouterr().err


def test_divergence_exits_four(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            **BASE,
            "rounds": 2,
            "net": {"dropout_prob": 0.0},
            "hp": {"learning_rate": 1e308, "epochs": 2},
        },
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "diverged" in capsys.readouterr().err


def test_overflowing_cluster_probe_exits_four(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**PROBE_OVERFLOW, "seed": 5})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "training diverged: cluster probe: " in capsys.readouterr().err
    assert (tmp_path / "o" / "config.json").is_file()


def test_replay_command_reports_per_version(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {**BASE, "optional_components": ["co_versioning"]}
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(
        ["replay", "--ledger", str(out / "ledger.jsonl"), "--archive", str(out / "payloads")]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "g0: MATCH"
    assert lines[-1].endswith("versions match")


def test_replay_flags_tampering_with_exit_one(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {**BASE, "optional_components": ["co_versioning"], "net": {"dropout_prob": 0.0}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    ledger_rows = [
        json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()
    ]
    victim = ledger_rows[1]["contributors"][0]["payload_hash"]
    flip_byte(out / "payloads", victim, at=0)
    code = main(
        ["replay", "--ledger", str(out / "ledger.jsonl"), "--archive", str(out / "payloads")]
    )
    assert code == 1
    assert "HASH_MISMATCH" in capsys.readouterr().out


def test_report_command_writes_csv(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {**BASE, "optional_components": ["incentives"]}
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--run", str(out)]) == 0
    with (out / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["round"] == "0"
    assert float(rows[1]["incentives_paid"]) >= 0.0


def test_report_rejects_forged_byte_counters(tmp_path):
    cfg = _write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    rows[1]["bytes_up"] += 64
    (out / "metrics.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    )
    with pytest.raises(IntegrityError):
        build_report(out)
    assert main(["report", "--run", str(out)]) == 1


def test_report_requires_a_finished_run(tmp_path):
    with pytest.raises(IntegrityError):
        build_report(tmp_path)


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"secure_masking": True}, "secure_masking"),
        ({"optional_components": ["monitor"], "monitor": {"band": 0.3}}, "monitor.band"),
        ({"aggregation_mode": "decentralised", "net": {"dropout_prob": 0.5}}, "net.dropout_prob"),
        ({"optional_components": ["cluster"]}, "deployment_selector"),
        ({"data": {"augment_target": [0.2, 0.3, 0.5]}}, "data.augment_target"),
        ({"aggregation_mode": "decentralised", "n_clients": 1}, "n_clients"),
        (
            {"aggregation_mode": "secure", "n_clients": 10, "fraction_per_round": 0.1},
            "fraction_per_round",
        ),
        (
            {"aggregation_mode": "hierarchical", "n_clients": 3, "round": {"min_updates": 4}},
            "round.min_updates",
        ),
        (
            {
                "data": {"augment_target": [0.5, 0.5, 0.5]},
                "optional_components": ["heterogeneous_handler"],
            },
            "data.augment_target",
        ),
        (
            {"data": {"partition": {"mode": "dirichlet_label_skew", "alpha": 1.7e308}}},
            "data.partition.alpha",
        ),
        (
            {
                "data": {
                    "augment_target": [0.5, 0.5, 0.0],
                    "partition": {"mode": "dirichlet_label_skew", "alpha": 0.1},
                },
                "optional_components": ["heterogeneous_handler"],
            },
            "data.augment_target",
        ),
    ],
    ids=[
        "secure-masking", "monitor-band", "gossip-dropout", "cluster-alone", "augment-alone",
        "one-node-ring", "one-secure-participant", "min-updates-past-clients", "augment-sum",
        "dirichlet-alpha-past-draw", "augment-absent-class",
    ],
)
def test_ignored_or_unrunnable_setting_exits_two(tmp_path, capsys, raw, key):
    cfg = _write_config(tmp_path, {**BASE, **raw})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "o").exists()
