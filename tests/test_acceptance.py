"""Release acceptance suite: one test per shipping criterion.

Every test prints a single "criterion NN: PASS/FAIL" line (visible with
-s, or in the captured output of a failure) and asserts the same
condition.  Where a criterion needs a reference value, the oracle is
computed here from first principles: pooled-data SGD for the federated
convergence bound, finite differences for gradients, a twin plaintext
run for the masked-traffic scan.  Tolerances are fixed; loosening one
to make a red test green is never the fix.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from fedsim.aggregation import (
    EdgeGroup,
    GossipGraph,
    WeightedUpdate,
    async_merge,
    fedavg,
    gossip_round,
    hierarchical_aggregate,
    mask_submission,
    node_mean,
    pairwise_pads,
    secure_sum,
)
from fedsim.cli import main as cli_main
from fedsim.client import build_envelope, compress, decompress, encode_payload_body
from fedsim.config import FLAG_CO_VERSIONING, parse_config
from fedsim.data import make_holdout, partition
from fedsim.models import (
    ArchDescriptor,
    Dataset,
    EvalReport,
    ParameterVector,
    evaluate,
    init_params,
)
from fedsim.replay import STATUS_HASH_MISMATCH, STATUS_MATCH, all_match, replay_run
from fedsim.runner import run_experiment
from fedsim.wire import K_UPDATE_DENSE, K_UPDATE_MASKED, K_UPDATE_SPARSE8
from gradcheck import finite_difference_gradient, loss_and_gradient
from payload_archive import flip_byte, read_blobs

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CONFIGS = sorted(GOLDEN_DIR.glob("g*.json"))
SEEDS = (1, 2, 3)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def _fifty_round_config(seed: int, mode: str, alpha: float):
    return parse_config({
        "rounds": 50,
        "n_clients": 10,
        "seed": seed,
        "data": {"partition": {"mode": mode, "alpha": alpha}},
    })


@functools.lru_cache(maxsize=None)
def _fifty_round_accs(mode: str, alpha: float) -> tuple[float, ...]:
    accs = []
    for seed in SEEDS:
        res = run_experiment(_fifty_round_config(seed, mode, alpha))
        accs.append(float(res.metrics[-1]["global_acc"]))
    return tuple(accs)


def _pooled_sgd_accuracy(cfg) -> float:
    """Train one model on all client training data at once, same budget."""
    shards = partition(cfg.partition_spec, cfg.synthetic, cfg.n_clients)
    pooled = Dataset(
        np.concatenate([s.train.features for s in shards]),
        np.concatenate([s.train.labels for s in shards]),
        cfg.arch.num_classes,
    )
    params = init_params(cfg.arch, cfg.init_mode, cfg.hp.seed)
    rng = np.random.default_rng(cfg.hp.seed)
    n, bs = len(pooled), cfg.hp.batch_size
    for _ in range(cfg.rounds):  # one pass per federated round
        order = rng.permutation(n)
        for lo in range(0, n, bs):
            idx = order[lo:lo + bs]
            batch = Dataset(pooled.features[idx], pooled.labels[idx], pooled.num_classes)
            _, grad = loss_and_gradient(params, cfg.arch, batch, cfg.hp.l2)
            params = ParameterVector(params.values - cfg.hp.learning_rate * grad.values)
    holdout = make_holdout(cfg.synthetic, cfg.holdout_n, seed=cfg.seed)
    return float(evaluate(params, cfg.arch, holdout).accuracy)


def test_criterion_01_convergence_sanity():
    central = [_pooled_sgd_accuracy(_fifty_round_config(s, "iid", 1.0)) for s in SEEDS]
    t0 = time.monotonic()
    fed = _fifty_round_accs("iid", 1.0)
    elapsed = time.monotonic() - t0
    fed_mean = sum(fed) / len(fed)
    central_mean = sum(central) / len(central)
    ok = (
        fed_mean >= 0.95
        and central_mean >= 0.97
        and central_mean - fed_mean <= 0.05
        and elapsed <= 30.0
    )
    _verdict(1, ok, f"federated {fed_mean:.4f}, pooled {central_mean:.4f}, "
                    f"gap {central_mean - fed_mean:+.4f}, {elapsed:.1f}s")


def test_criterion_02_noniid_degradation():
    iid = _fifty_round_accs("iid", 1.0)
    skew = _fifty_round_accs("dirichlet_label_skew", 0.1)
    iid_mean = sum(iid) / len(iid)
    skew_mean = sum(skew) / len(skew)
    _verdict(2, skew_mean < iid_mean,
             f"alpha=0.1 mean {skew_mean:.4f} vs iid mean {iid_mean:.4f}")


def test_criterion_03_masked_aggregation_equivalence(tmp_path):
    rng = np.random.default_rng(303)
    d = 30
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        updates = [
            WeightedUpdate(cid, ParameterVector(rng.normal(size=d)),
                           int(rng.integers(1, 101)))
            for cid in range(n)
        ]
        plain = fedavg(updates)
        # the runner's secure exchange: pads over every committed client,
        # each masks its weighted update, the server sums
        ids = list(range(n))
        pads = pairwise_pads(ids, int(rng.integers(0, 2**63)))
        acc = np.stack([u.params.values * u.n_samples for u in updates])  # rows in id order
        for cid in ids:
            mask_submission(cid, acc, pads)
        masked = secure_sum(list(zip(ids, acc)), sum(u.n_samples for u in updates), ids)
        worst = max(worst, float(np.max(np.abs(plain.values - masked.values))))

    # twin runs, identical seeds: the plaintext archive supplies the raw
    # per-client upload bytes the masked traffic must never contain
    base = {
        "rounds": 4, "n_clients": 5, "seed": 41,
        "optional_components": ["co_versioning"],
        "net": {"dropout_prob": 0.0},
    }
    plain_res = run_experiment(parse_config(dict(base)), tmp_path / "plain")
    secure_res = run_experiment(
        parse_config({**base, "aggregation_mode": "secure"}), tmp_path / "masked")

    sentinels = []
    plain_blobs = read_blobs(tmp_path / "plain" / "payloads")
    for vid in plain_res.ledger.versions():
        rec = plain_res.ledger.get(vid)
        for c in rec.contributors:
            # the stored payload body is exactly the raw update floats
            sentinels.append(plain_blobs[c.payload_hash])
    masked_blobs = read_blobs(tmp_path / "masked" / "payloads")
    traffic = b"".join(masked_blobs[d] for d in sorted(masked_blobs))
    leaked = sum(1 for s in sentinels if s in traffic)

    masked_kinds = all(
        c.update_kind == K_UPDATE_MASKED
        for vid in secure_res.ledger.versions()
        for c in secure_res.ledger.get(vid).contributors
    )
    ok = worst <= 1e-9 and leaked == 0 and masked_kinds and len(sentinels) > 0
    _verdict(3, ok, f"max inf-diff {worst:.2e} over 20 rounds, "
                    f"{leaked}/{len(sentinels)} sentinel leaks")


def test_criterion_04_hierarchical_equivalence():
    rng = np.random.default_rng(404)
    d = 25
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        updates = [
            WeightedUpdate(cid, ParameterVector(rng.normal(size=d)),
                           int(rng.integers(1, 51)))
            for cid in range(n)
        ]
        m = int(rng.integers(1, n + 1))
        assignment = rng.integers(0, m, size=n)
        groups = [
            EdgeGroup(e, tuple(int(c) for c in np.flatnonzero(assignment == e)))
            for e in range(m)
            if np.any(assignment == e)
        ]
        flat = fedavg(updates)
        two_level = hierarchical_aggregate(groups, updates)
        worst = max(worst, float(np.max(np.abs(flat.values - two_level.values))))
    _verdict(4, worst <= 1e-12, f"max inf-diff {worst:.2e} over 50 partitions")


def test_criterion_05_gossip_consensus():
    rng = np.random.default_rng(505)
    graph = GossipGraph.ring(list(range(8)))
    states = {n: ParameterVector(rng.normal(size=20)) for n in graph.nodes}
    start_mean = node_mean(states).values
    max_drift = 0.0
    prev_mean = start_mean
    for _ in range(200):
        states = gossip_round(graph, states)
        mean = node_mean(states).values
        max_drift = max(max_drift, float(np.max(np.abs(mean - prev_mean))))
        prev_mean = mean
    spread = max(
        float(np.max(np.abs(states[n].values - start_mean))) for n in graph.nodes)
    ok = spread <= 1e-6 and max_drift <= 1e-12
    _verdict(5, ok, f"spread after 200 steps {spread:.2e}, "
                    f"per-step mean drift {max_drift:.2e}")


def test_criterion_06_async_liveness_and_fixed_point():
    cfg = parse_config({
        "rounds": 6, "n_clients": 5, "seed": 61,
        "aggregation_mode": "async",
        "optional_components": ["co_versioning"],
        "net": {"dropout_prob": 0.2},
    })
    res = run_experiment(cfg)
    minted = len(res.ledger.versions()) - 1  # the init version has no arrival
    arrivals = sum(int(row["n_received"]) for row in res.metrics)

    rng = np.random.default_rng(606)
    g = ParameterVector(rng.normal(size=40))
    fixed = all(
        async_merge(g, g, cur, base, 0.6, 0.5).values.tobytes() == g.values.tobytes()
        for cur, base in ((0, 0), (3, 3), (10, 2), (50, 0))
    )
    ok = len(res.metrics) == cfg.rounds and minted == arrivals and fixed
    _verdict(6, ok, f"{cfg.rounds} rounds, {minted} merges for {arrivals} arrivals, "
                    f"self-merge exact: {fixed}")


def test_criterion_07_compression_bound_and_bytes():
    rng = np.random.default_rng(707)
    d = 1000
    worst_ratio = 0.0
    for i in range(1000):
        v = rng.normal(size=d) * (10.0 ** int(rng.integers(-3, 4)))
        for bits in (4, 8, 16):
            cu = compress(v, top_k=1.0, bits=bits)
            err = float(np.max(np.abs(decompress(cu) - v)))
            bound = cu.scale / ((1 << bits) - 1)
            if err > bound:
                _verdict(7, False, f"draw {i} bits {bits}: error {err:.3e} "
                                   f"above bound {bound:.3e}")
            worst_ratio = max(worst_ratio, err / bound if bound else 0.0)

    k = math.ceil(0.1 * d)
    v = rng.normal(size=d)
    cu = compress(v, top_k=0.1, bits=8)
    report = EvalReport(0.5, 0.5, 10, (5, 5))
    sparse = build_envelope(0, 1, "g0", 10, K_UPDATE_SPARSE8, cu, report).byte_size
    dense = build_envelope(0, 1, "g0", 10, K_UPDATE_DENSE, ParameterVector(v), report).byte_size
    overhead = dense - 8 * d  # header, base version, n_samples, eval block
    exact = (
        len(cu.indices) == k
        and len(encode_payload_body(cu)) == k * 5 + 8
        and sparse == overhead + k * 5 + 8
    )
    within = sparse - overhead <= 0.10 * (dense - overhead) + 8  # payloads, plus the scale
    ok = exact and within
    _verdict(7, ok, f"worst error/bound {worst_ratio:.8f}, sparse "
                    f"{sparse}B vs dense {dense}B")


def test_criterion_08_gradient_oracle():
    rng = np.random.default_rng(808)
    archs = (
        ArchDescriptor("logistic", input_dim=4, hidden_dim=0, num_classes=3),
        ArchDescriptor("mlp", input_dim=4, hidden_dim=6, num_classes=3),
    )
    worst = 0.0
    for arch in archs:
        for i in range(20):
            params = ParameterVector(rng.normal(size=arch.parameter_count) * 0.5)
            batch = Dataset(rng.normal(size=(8, 4)), rng.integers(0, 3, size=8), 3)
            l2 = 0.01 if i % 2 else 0.0
            _, grad = loss_and_gradient(params, arch, batch, l2)
            fd = finite_difference_gradient(params, arch, batch, eps=1e-5, l2=l2)
            denom = max(1.0, float(np.max(np.abs(fd.values))))
            worst = max(worst, float(np.max(np.abs(grad.values - fd.values))) / denom)
    _verdict(8, worst <= 1e-5, f"max relative error {worst:.2e} over 40 draws")


def test_criterion_09_lineage_replay_and_tamper(tmp_path):
    replayed = 0
    tamper_checked = False
    detail = ""
    for cf in GOLDEN_CONFIGS:
        cfg = parse_config(json.loads(cf.read_text()))
        if not cfg.has(FLAG_CO_VERSIONING):
            continue
        out = tmp_path / cf.stem
        res = run_experiment(cfg, out)
        checks = replay_run(out / "ledger.jsonl", out / "payloads")
        if not all_match(checks):
            _verdict(9, False, f"{cf.stem}: clean replay reported a mismatch")
        replayed += 1

        if tamper_checked:
            continue
        # flip one byte in a payload referenced by exactly one version
        hash_owners: dict[str, list[str]] = {}
        for vid in res.ledger.versions():
            for c in res.ledger.get(vid).contributors:
                hash_owners.setdefault(c.payload_hash, []).append(vid)
        victim_hash, owners = next(
            (h, o) for h, o in hash_owners.items() if len(o) == 1)
        victim = owners[0]
        flip_byte(out / "payloads", victim_hash)
        rc = cli_main(["replay", "--ledger", str(out / "ledger.jsonl"),
                       "--archive", str(out / "payloads")])
        tampered = {c.version_id: c.status for c in
                    replay_run(out / "ledger.jsonl", out / "payloads")}
        before = [v for v in res.ledger.versions()
                  if res.ledger.versions().index(v) < res.ledger.versions().index(victim)]
        ok_tamper = (
            rc == 1
            and tampered[victim] == STATUS_HASH_MISMATCH
            and all(tampered[v] == STATUS_MATCH for v in before)
        )
        if not ok_tamper:
            _verdict(9, False, f"{cf.stem}: tampering {victim_hash} blamed "
                               f"{tampered}, wanted {victim}")
        detail = f"tamper pinned to {victim} in {cf.stem}"
        tamper_checked = True
    _verdict(9, replayed >= 6 and tamper_checked,
             f"{replayed} golden runs replayed clean, {detail}")


def test_criterion_10_monitor_feedback_loop(tmp_path):
    window, cooldown, drift_round = 5, 5, 30
    cfg = parse_config({
        "rounds": 60, "n_clients": 4, "seed": 5,
        "optional_components": ["monitor"],
        "monitor": {"window": window, "threshold": 0.8, "cooldown_rounds": cooldown,
                    "drift_round": drift_round, "drift_flip_fraction": 0.4},
        "net": {"dropout_prob": 0.0},
    })
    out = tmp_path / "monitored"
    run_experiment(cfg, out)
    events = [json.loads(line) for line
              in (out / "event_log.jsonl").read_text().splitlines()]
    triggers = [e for e in events if e["event"] == "trigger"]
    fine_tunes = [e["round"] for e in triggers if e["action"] == "fine_tune"]
    trains_after = [e for e in events
                    if e["event"] == "local_train" and fine_tunes
                    and e["round"] > fine_tunes[0]]
    ok = (
        bool(fine_tunes)
        and all(e["round"] >= drift_round for e in triggers)
        and fine_tunes[0] <= drift_round + window + cooldown
        and len(trains_after) >= 1
    )
    first = fine_tunes[0] if fine_tunes else None
    _verdict(10, ok, f"first fine-tune trigger at round {first} "
                     f"(deadline {drift_round + window + cooldown}), "
                     f"{len(trains_after)} local trainings after")


def test_criterion_11_golden_determinism(tmp_path):
    def snapshot(out: Path) -> dict[str, bytes]:
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_meta.json"
        }

    diverged = []
    for cf in GOLDEN_CONFIGS:
        raw = json.loads(cf.read_text())
        first = tmp_path / "a" / cf.stem
        second = tmp_path / "b" / cf.stem
        run_experiment(parse_config(raw), first)
        run_experiment(parse_config(raw), second)
        if snapshot(first) != snapshot(second):
            diverged.append(cf.stem)
    _verdict(11, not diverged and len(GOLDEN_CONFIGS) == 8,
             f"{len(GOLDEN_CONFIGS)} configs re-run byte-identical"
             + (f", diverged: {diverged}" if diverged else ""))


def test_criterion_12_selector_personalization(tmp_path):
    def last_local_acc(seed: int, with_selector: bool) -> float:
        raw = {
            "rounds": 20, "n_clients": 8, "seed": seed,
            "arch": {"kind": "logistic", "input_dim": 4, "num_classes": 2},
            "data": {"partition": {"mode": "dirichlet_label_skew", "alpha": 0.1}},
            "net": {"dropout_prob": 0.0},
        }
        if with_selector:
            raw["optional_components"] = ["cluster", "deployment_selector"]
            raw["cluster"] = {"k": 2, "feature_source": "label_distribution"}
        out = tmp_path / f"s{seed}_{'sel' if with_selector else 'flat'}"
        run_experiment(parse_config(raw), out)
        rows = [json.loads(line) for line
                in (out / "deployments.jsonl").read_text().splitlines()]
        return float(rows[-1]["local_acc_mean"])

    seeds = (11, 12, 13)
    with_sel = [last_local_acc(s, True) for s in seeds]
    without = [last_local_acc(s, False) for s in seeds]
    sel_mean = sum(with_sel) / len(seeds)
    flat_mean = sum(without) / len(seeds)
    _verdict(12, sel_mean >= flat_mean,
             f"cluster-routed {sel_mean:.4f} vs global-only {flat_mean:.4f} "
             f"over {len(seeds)} seeds")
