"""Experiment driver: one deterministic run from config to artifacts.

The driver owns the clock. Synchronous modes advance it round by round;
the async mode replays an event queue of wave timers and message
deliveries. Every random draw is keyed by the master seed plus a salt,
so a config replays to byte-identical artifacts (run_meta.json, which
records wall-clock timestamps, is the single exception).
"""

from __future__ import annotations

import contextlib
import datetime
import json
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import wire
from .aggregation import (
    MODE_ASYNC,
    MODE_FEDAVG,
    MODE_GOSSIP,
    MODE_HIERARCHICAL,
    MODE_INIT,
    MODE_SECURE,
    ROOT_VERSION,
    SEGMENT_BODY,
    SEGMENT_FULL,
    Contributor,
    EdgeGroup,
    GlobalVersionRecord,
    GossipGraph,
    VersionLedger,
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
from .client import (
    PAYLOAD_MASKED,
    ClientRuntime,
    ModelPackage,
    UpdateEnvelope,
    Withheld,
    WITHHELD_DIVERGENCE,
    WITHHELD_GATE,
    build_envelope,
    decompress,
    encode_payload_body,
    upload_gate,
    wire_update_kind,
)
from .config import (
    FLAG_CLUSTER,
    FLAG_CO_VERSIONING,
    FLAG_DEPLOYMENT_SELECTOR,
    FLAG_HETEROGENEOUS,
    FLAG_INCENTIVES,
    FLAG_MONITOR,
    FLAG_MULTITASK,
    FLAG_REGISTRY,
    MODE_DECENTRALISED,
    ExperimentConfig,
)
from .data import augment_balance, label_distribution, make_holdout, partition
from .errors import DivergenceError, IntegrityError, SecureAbortError, SelectionStarvationError
from .models import Dataset, ParameterVector, evaluate, local_train, save_checkpoint, seq_sum
from .monitoring import (
    ACTION_FINE_TUNE,
    ACTION_NONE,
    DECISION_DEPLOY,
    DeploymentSelector,
    MonitorState,
    accrue_incentive,
    decide_deploy,
    deploy,
    evaluate_global,
    incentive_entries_json,
    monitor_observe,
)
from .orchestrator import ClientRegistry, cluster_clients, create_job, select_clients
from .simnet import EVENT_DELIVER, EVENT_TIMER, EventQueue, send

RESOURCE_SALT = 403
MONITOR_STREAM_SALT = 501
DRIFT_SALT = 502

# round index reserved for the setup-time probe train used by
# update-direction clustering; real rounds are always < 2^32 - 1
_PROBE_ROUND = 0xFFFFFFFF


@dataclass
class RunResult:
    run_id: str
    out_dir: Path | None
    final_version_id: str
    rounds: int
    metrics: list[dict]
    ledger: VersionLedger
    version_params: dict[str, ParameterVector]


def _flip_labels(ds: Dataset, fraction: float, rng: np.random.Generator) -> Dataset:
    """Move a seeded fraction of labels to a different class."""
    n = len(ds)
    pick = rng.random(n) < fraction
    offsets = rng.integers(1, ds.num_classes, size=n)
    labels = ds.labels.copy()
    labels[pick] = (labels[pick] + offsets[pick]) % ds.num_classes
    return Dataset(ds.features, labels, ds.num_classes)


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


@contextlib.contextmanager
def _numeric_guard(round_index: int):
    """Overflowed aggregates surface as divergence, not invariant errors.

    Individual updates can stay just inside float64 range while their
    weighted sum does not; the parameter-vector constructor rejects the
    non-finite result with ValueError and this remaps it.
    """
    try:
        yield
    except ValueError as e:
        if "non-finite" in str(e):
            raise DivergenceError(f"round {round_index}: {e}") from None
        raise


class ExperimentRunner:
    def __init__(self, cfg: ExperimentConfig, out_dir: str | Path | None = None):
        self.cfg = cfg
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._setup()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _setup(self) -> None:
        cfg = self.cfg
        self.shards = partition(cfg.partition_spec, cfg.synthetic, cfg.n_clients)
        if cfg.has(FLAG_HETEROGENEOUS):
            target = cfg.augment_target
            if target is None:
                k = cfg.arch.num_classes
                target = tuple(1.0 / k for _ in range(k))
            self.shards = [
                augment_balance(s, target, cfg.synthetic.noise_sigma, seed=cfg.seed)
                for s in self.shards
            ]
        self.holdout = make_holdout(cfg.synthetic, cfg.holdout_n, seed=cfg.seed)
        self.monitor_stream = make_holdout(cfg.synthetic, cfg.holdout_n, seed=MONITOR_STREAM_SALT)

        self.registry = ClientRegistry()
        resource = {
            cid: float(np.random.default_rng([cfg.seed, RESOURCE_SALT, cid]).uniform())
            for cid in range(cfg.n_clients)
        }
        for cid, shard in enumerate(self.shards):
            self.registry.register(cid, resource[cid], len(shard.train), 0.0)

        multitask = cfg.has(FLAG_MULTITASK)
        self.runtimes = {
            cid: ClientRuntime(
                cid,
                shard,
                gate=cfg.gate,
                compression=cfg.compression,
                multitask=multitask,
            )
            for cid, shard in enumerate(self.shards)
        }
        self.multitask = multitask
        self.shared_len = cfg.arch.shared_parameter_count if multitask else None

        _, pkg = create_job(cfg.arch, cfg.hp, cfg.init_mode, job_id=cfg.run_id)
        self.ledger = VersionLedger()
        # payload blobs by content hash; only kept when they will be written
        self._archive: dict[str, bytes] = {}
        root_hash = self._archive_blob(wire.params_bytes(pkg.params.values))
        self.ledger.record(
            GlobalVersionRecord(ROOT_VERSION, None, root_hash, (), 0, MODE_INIT)
        )
        self.version_params: dict[str, ParameterVector] = {ROOT_VERSION: pkg.params}
        self.latest_vid = ROOT_VERSION
        self._next_version_n = 1

        self.cluster_assignment: dict[int, int] | None = None
        self.cluster_model_ids: dict[int, str] = {}
        self.model_store: dict[str, ParameterVector] = {}
        if cfg.has(FLAG_CLUSTER):
            vectors = self._cluster_features()
            result = cluster_clients(vectors, cfg.cluster_k, cfg.seed)
            self.cluster_assignment = result.assignment
            self.cluster_model_ids = {c: ROOT_VERSION for c in range(cfg.cluster_k)}

        self.mon_state = MonitorState(
            window_size=cfg.monitor_window,
            threshold=cfg.monitor_threshold,
            cooldown_rounds=cfg.monitor_cooldown,
            band=cfg.monitor_band,
        )
        self._monitor_params: ParameterVector | None = None
        self.accounts: dict = {}

        self.clock = 0.0
        self.metrics: list[dict] = []
        self.events: list[dict] = []
        self.deployment_rows: list[dict] = []
        self._msg_seq = 0
        self._starved = 0
        self._boost_next = False
        self._to_reactivate: list[int] = []
        self._round_up = 0
        self._round_down = 0
        self._round_max_time = 0.0
        self._t_start = time.monotonic()

    def _cluster_features(self) -> dict[int, np.ndarray]:
        cfg = self.cfg
        if cfg.cluster_features == "label_distribution":
            return {cid: label_distribution(s) for cid, s in enumerate(self.shards)}
        # update_direction: probe one local train from the initial model
        init = self.version_params[ROOT_VERSION]
        vectors = {}
        for cid, shard in enumerate(self.shards):
            seed = wire.fnv1a64(
                struct.pack("<QII", cfg.hp.seed & 0xFFFFFFFFFFFFFFFF, cid, _PROBE_ROUND)
            )
            hp = replace(cfg.hp, seed=seed)
            trained = local_train(init, cfg.arch, shard.train, hp)
            vectors[cid] = trained.values - init.values
        return vectors

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------

    def _log(self, row: dict) -> None:
        self.events.append(row)

    def _send(self, label, net, sender, receiver, nbytes, sent_at, round_index):
        self._msg_seq += 1
        env = send(net, sender, receiver, nbytes, sent_at, self._msg_seq)
        if sender == wire.SERVER_SENDER:
            self._round_down += nbytes
        else:
            self._round_up += nbytes
        if env.delivered_at is not None and env.delivered_at > self._round_max_time:
            self._round_max_time = env.delivered_at
        self._log(
            {
                "event": "message",
                "round": round_index,
                "kind": label,
                "sender": sender,
                "receiver": receiver,
                "bytes": nbytes,
                "sent_at": env.sent_at,
                "delivered_at": env.delivered_at,
                "outcome": "dropped" if env.delivered_at is None else "delivered",
            }
        )
        return env

    def _begin_round(self, r: int) -> float:
        for cid in self._to_reactivate:
            self.registry.reactivate(cid)
            self._log({"event": "registry", "round": r, "client_id": cid, "change": "reactivated"})
        self._to_reactivate = []
        if self.cfg.drift_round is not None and r == self.cfg.drift_round:
            self._inject_drift(r)
        self._round_up = 0
        self._round_down = 0
        self._round_max_time = self.clock
        fraction = 1.0 if self._boost_next else self.cfg.fraction
        if self._boost_next:
            self._log({"event": "fine_tune_boost", "round": r})
        self._boost_next = False
        return fraction

    def _inject_drift(self, r: int) -> None:
        cfg = self.cfg
        frac = cfg.drift_flip_fraction
        for cid, shard in enumerate(self.shards):
            rng = np.random.default_rng([cfg.seed, DRIFT_SALT, cid])
            train = _flip_labels(shard.train, frac, rng)
            test = _flip_labels(shard.test, frac, rng)
            hist = np.bincount(train.labels, minlength=cfg.arch.num_classes)
            drifted = replace(
                shard, train=train, test=test,
                label_histogram=tuple(int(c) for c in hist),
            )
            self.shards[cid] = drifted
            self.runtimes[cid].shard = drifted
        rng = np.random.default_rng([cfg.seed, DRIFT_SALT, cfg.n_clients])
        self.monitor_stream = _flip_labels(self.monitor_stream, frac, rng)
        self._log({"event": "drift_injected", "round": r, "flip_fraction": frac})

    def _drop_nonresponders(self, r: int, selected, responded) -> None:
        for cid in sorted(set(selected) - set(responded)):
            self.registry.mark_dropped(cid)
            self._to_reactivate.append(cid)
            self._log({"event": "registry", "round": r, "client_id": cid, "change": "dropped"})

    def _splice_head(self, body: ParameterVector, parent: ParameterVector) -> ParameterVector:
        head = parent.values[self.shared_len:]
        return ParameterVector(np.concatenate([body.values, head]))

    def _reconstruct(self, env: UpdateEnvelope, base: ParameterVector) -> ParameterVector:
        """The dense update a payload stands for, against its broadcast base."""
        if isinstance(env.payload, ParameterVector):
            return env.payload
        base_vals = base.values if self.shared_len is None else base.values[: self.shared_len]
        delta = decompress(env.payload, d=base_vals.shape[0])
        return ParameterVector(base_vals + delta)

    def _archive_blob(self, blob: bytes) -> str:
        """Content hash of `blob`, archiving it when the run writes payloads."""
        digest = wire.hash_hex(blob)
        if self.cfg.has(FLAG_CO_VERSIONING):
            held = self._archive.setdefault(digest, blob)
            if held != blob:
                raise IntegrityError(f"two different payloads hash to [{digest}]")
        return digest

    def _contributor(self, env: UpdateEnvelope) -> Contributor:
        digest = self._archive_blob(encode_payload_body(env.payload))
        ev = env.local_eval
        return Contributor(
            client_id=env.client_id,
            payload_hash=digest,
            n_samples=env.n_samples,
            update_kind=wire_update_kind(env),
            base_version=env.base_version_id,
            loss=float(ev.loss),
            accuracy=float(ev.accuracy),
        )

    def _mint(self, params, contributors, r, mode, detail) -> str:
        vid = wire.format_version(self._next_version_n)
        self._next_version_n += 1
        segment = SEGMENT_BODY if self.multitask else SEGMENT_FULL
        if self.multitask:
            # replay needs the split point; payloads alone cannot supply it
            # once they are compressed
            detail = {**detail, "body_len": self.shared_len}
        rec = GlobalVersionRecord(
            vid,
            self.latest_vid,
            wire.params_hash(params.values),
            tuple(contributors),
            r,
            mode,
            update_segment=segment,
            detail=detail,
        )
        self.ledger.record(rec)
        self.version_params[vid] = params
        self.latest_vid = vid
        self._log(
            {
                "event": "aggregate",
                "round": r,
                "version_id": vid,
                "mode": mode,
                "n_contributors": len(contributors),
            }
        )
        if self.cfg.has(FLAG_INCENTIVES):
            shares = [(c.client_id, c.n_samples) for c in contributors]
            accrue_incentive(self.accounts, r, shares, self.cfg.incentive_rate)
        return vid

    def _package(self) -> ModelPackage:
        return ModelPackage(
            self.latest_vid, self.version_params[self.latest_vid], self.cfg.arch, self.cfg.hp
        )

    def _model_params(self, model_id: str) -> ParameterVector:
        if model_id in self.model_store:
            return self.model_store[model_id]
        return self.version_params[model_id]

    # ------------------------------------------------------------------
    # per-round wrap-up: deploy, monitor, metrics
    # ------------------------------------------------------------------

    def _post_round(self, r, n_selected, n_received, bytes_up, bytes_down) -> None:
        cfg = self.cfg
        params = self.version_params[self.latest_vid]
        report = evaluate_global(params, cfg.arch, self.holdout)
        triggers = 0
        decision = decide_deploy(report, cfg.deploy_policy)
        if decision.action == DECISION_DEPLOY:
            targets = self.registry.active_ids()
            if targets:
                selector = None
                if cfg.has(FLAG_DEPLOYMENT_SELECTOR):
                    selector = DeploymentSelector(self.cluster_assignment, self.cluster_model_ids)
                rec = deploy(self.latest_vid, r, targets, selector)
                accs = [
                    evaluate(
                        self._model_params(rec.model_ids[t]),
                        cfg.arch,
                        self.runtimes[t].shard.test,
                    ).accuracy
                    for t in rec.targets
                ]
                local_mean = seq_sum(accs) / len(accs)
                self._monitor_params = params
                self.deployment_rows.append(
                    {
                        "round": r,
                        "version_id": self.latest_vid,
                        "n_targets": len(rec.targets),
                        "selector": selector is not None,
                        "local_acc_mean": float(local_mean),
                    }
                )
                self._log(
                    {
                        "event": "deploy",
                        "round": r,
                        "version_id": self.latest_vid,
                        "n_targets": len(rec.targets),
                    }
                )
        else:
            self._log(
                {
                    "event": "deploy_rejected",
                    "round": r,
                    "version_id": self.latest_vid,
                    "reasons": list(decision.reasons),
                }
            )
        if cfg.has(FLAG_MONITOR) and self._monitor_params is not None:
            acc = evaluate(self._monitor_params, cfg.arch, self.monitor_stream).accuracy
            self.mon_state, action = monitor_observe(self.mon_state, r, acc)
            self._log({"event": "monitor", "round": r, "accuracy": float(acc)})
            if action != ACTION_NONE:
                triggers = 1
                self._log({"event": "trigger", "round": r, "action": action})
                if action == ACTION_FINE_TUNE:
                    self._boost_next = True
        self.metrics.append(
            {
                "round": r,
                "version_id": self.latest_vid,
                "global_acc": float(report.accuracy),
                "global_loss": float(report.loss),
                "n_selected": n_selected,
                "n_received": n_received,
                "bytes_up": bytes_up,
                "bytes_down": bytes_down,
                "triggers": triggers,
            }
        )

    # ------------------------------------------------------------------
    # synchronous rounds (fedavg, secure, hierarchical)
    # ------------------------------------------------------------------

    def _broadcast(self, r, selected, pkg) -> list[tuple[int, float]]:
        size = wire.broadcast_message_size(len(pkg.params))
        delivered = []
        for cid in selected:
            env = self._send("broadcast", self.cfg.net, wire.SERVER_SENDER, cid, size, self.clock, r)
            if env.delivered_at is not None:
                delivered.append((cid, env.delivered_at))
        return delivered

    def _finish_round_clock(self) -> None:
        if self.cfg.deadline_s is not None:
            self.clock = self.clock + self.cfg.deadline_s
        else:
            self.clock = max(self.clock, self._round_max_time)

    def _cutoff(self) -> float | None:
        if self.cfg.deadline_s is None:
            return None
        return self.clock + self.cfg.deadline_s

    def _check_all_diverged(self, r, trained, diverged) -> None:
        if trained and diverged == trained:
            raise DivergenceError(f"round {r}: every training client diverged")

    def _update_cluster_models(self, vid, weighted, parent) -> None:
        if not self.cfg.has(FLAG_DEPLOYMENT_SELECTOR):
            return
        ids = {}
        for c in range(self.cfg.cluster_k):
            members = [w for w in weighted if self.cluster_assignment[w.client_id] == c]
            if members:
                model = fedavg(members)
                if self.multitask:
                    model = self._splice_head(model, parent)
                mid = f"{vid}-c{c}"
                self.model_store[mid] = model
                ids[c] = mid
            else:
                ids[c] = vid
        self.cluster_model_ids = ids

    def _run_sync_round(self, r: int) -> None:
        cfg = self.cfg
        fraction = self._begin_round(r)
        try:
            plan = select_clients(
                self.registry, cfg.selection, fraction, r, cfg.seed, self.latest_vid
            )
        except SelectionStarvationError:
            self._starved += 1
            self._log({"event": "starved", "round": r})
            self._post_round(r, 0, 0, 0, 0)
            return
        pkg = self._package()
        cutoff = self._cutoff()
        delivered = self._broadcast(r, plan.selected, pkg)

        # masking can be requested on top of plain fedavg; the minted record
        # carries the protocol actually used so replay recomputes it right
        if cfg.secure_masking:
            minted_mode = MODE_SECURE
            detail, contributors, agg = self._secure_exchange(r, pkg, delivered, cutoff)
        elif cfg.aggregation_mode == MODE_HIERARCHICAL:
            minted_mode = cfg.aggregation_mode
            detail, contributors, agg = self._hierarchical_exchange(r, pkg, delivered, cutoff)
        else:
            minted_mode = cfg.aggregation_mode
            detail, contributors, agg = self._fedavg_exchange(r, pkg, delivered, cutoff)

        self._finish_round_clock()
        responded = [c.client_id for c in contributors]
        self._drop_nonresponders(r, plan.selected, responded)
        if agg is None:
            self._post_round(r, len(plan.selected), 0, self._round_up, self._round_down)
            return

        params = self._splice_head(agg, pkg.params) if self.multitask else agg
        self._mint(params, contributors, r, minted_mode, detail)
        self._post_round(
            r, len(plan.selected), len(contributors), self._round_up, self._round_down
        )

    def _fedavg_exchange(self, r, pkg, delivered, cutoff):
        trained = 0
        diverged = 0
        arrivals = []
        for cid, t_arr in delivered:
            out = self.runtimes[cid].handle_broadcast(pkg, r)
            trained += 1
            if isinstance(out, Withheld):
                if out.reason == WITHHELD_DIVERGENCE:
                    diverged += 1
                self._log({"event": "withheld", "round": r, "client_id": cid, "reason": out.reason})
                continue
            ev = out.local_eval
            self._log(
                {
                    "event": "local_train",
                    "round": r,
                    "client_id": cid,
                    "loss": float(ev.loss),
                    "accuracy": float(ev.accuracy),
                    "n_samples": out.n_samples,
                }
            )
            up = self._send("update", self.cfg.net, cid, wire.SERVER_SENDER, out.byte_size, t_arr, r)
            if up.delivered_at is not None and (cutoff is None or up.delivered_at <= cutoff):
                arrivals.append((cid, out))
        self._check_all_diverged(r, trained, diverged)
        if len(arrivals) < self.cfg.min_updates:
            self._log({"event": "round_failed", "round": r, "reason": "too few updates"})
            return {}, [], None
        arrivals.sort(key=lambda a: a[0])
        with _numeric_guard(r):
            weighted = [
                WeightedUpdate(cid, self._reconstruct(env, pkg.params), env.n_samples)
                for cid, env in arrivals
            ]
            agg = fedavg(weighted)
        contributors = [self._contributor(env) for _, env in arrivals]
        for cid, env in arrivals:
            self.registry.record_participation(cid, env.local_eval)
        vid_next = wire.format_version(self._next_version_n)
        with _numeric_guard(r):
            self._update_cluster_models(vid_next, weighted, pkg.params)
        return {}, contributors, agg

    def _secure_exchange(self, r, pkg, delivered, cutoff):
        cfg = self.cfg
        trained = 0
        diverged = 0
        commits = []
        for cid, t_arr in delivered:
            rt = self.runtimes[cid]
            out = rt.train_and_evaluate(pkg, r)
            trained += 1
            if isinstance(out, Withheld):
                diverged += 1
                self._log({"event": "withheld", "round": r, "client_id": cid, "reason": out.reason})
                continue
            update, report = out
            if not upload_gate(report, cfg.gate):
                self._log(
                    {"event": "withheld", "round": r, "client_id": cid, "reason": WITHHELD_GATE}
                )
                continue
            self._log(
                {
                    "event": "local_train",
                    "round": r,
                    "client_id": cid,
                    "loss": float(report.loss),
                    "accuracy": float(report.accuracy),
                    "n_samples": len(rt.shard.train),
                }
            )
            commits.append((cid, update, report, t_arr))
        self._check_all_diverged(r, trained, diverged)
        if len(commits) < 2:
            self._log(
                {"event": "round_failed", "round": r, "reason": "fewer than 2 masking participants"}
            )
            return {}, [], None
        ids = [cid for cid, _, _, _ in commits]
        dim = len(commits[0][1])
        round_seed = wire.fnv1a64(struct.pack("<QI", cfg.seed & 0xFFFFFFFFFFFFFFFF, r))
        pads = pairwise_pads(ids, dim, round_seed)
        total_n = sum(len(self.runtimes[cid].shard.train) for cid in ids)
        arrivals = []
        for cid, update, report, t_arr in commits:
            n = len(self.runtimes[cid].shard.train)
            masked = mask_submission(WeightedUpdate(cid, update, n), pads)
            env = build_envelope(
                cid, r, pkg.version_id, n, PAYLOAD_MASKED, ParameterVector(masked), report
            )
            up = self._send("masked_update", cfg.net, cid, wire.SERVER_SENDER, env.byte_size, t_arr, r)
            if up.delivered_at is not None and (cutoff is None or up.delivered_at <= cutoff):
                arrivals.append((cid, env))
        try:
            with _numeric_guard(r):
                agg = secure_sum(
                    [(cid, env.payload.values) for cid, env in arrivals], total_n, ids
                )
        except SecureAbortError as e:
            self._log({"event": "secure_abort", "round": r, "reason": str(e)})
            self._log({"event": "round_failed", "round": r, "reason": "masking participant lost"})
            return {}, [], None
        arrivals.sort(key=lambda a: a[0])
        contributors = [self._contributor(env) for _, env in arrivals]
        for cid, env in arrivals:
            self.registry.record_participation(cid, env.local_eval)
        return {}, contributors, agg

    def _hierarchical_exchange(self, r, pkg, delivered, cutoff):
        cfg = self.cfg
        trained = 0
        diverged = 0
        edge_arrivals: dict[int, list] = {}
        for cid, t_arr in delivered:
            out = self.runtimes[cid].handle_broadcast(pkg, r)
            trained += 1
            if isinstance(out, Withheld):
                if out.reason == WITHHELD_DIVERGENCE:
                    diverged += 1
                self._log({"event": "withheld", "round": r, "client_id": cid, "reason": out.reason})
                continue
            ev = out.local_eval
            self._log(
                {
                    "event": "local_train",
                    "round": r,
                    "client_id": cid,
                    "loss": float(ev.loss),
                    "accuracy": float(ev.accuracy),
                    "n_samples": out.n_samples,
                }
            )
            edge = cid % cfg.n_edges
            up = self._send(
                "update", cfg.net, cid, wire.EDGE_SENDER_BASE + edge, out.byte_size, t_arr, r
            )
            if up.delivered_at is not None:
                edge_arrivals.setdefault(edge, []).append((cid, out, up.delivered_at))
        self._check_all_diverged(r, trained, diverged)
        dim = len(pkg.params) if not self.multitask else self.shared_len
        groups = []
        members_by_edge = {}
        for edge in sorted(edge_arrivals):
            rows = sorted(edge_arrivals[edge], key=lambda a: a[0])
            t_fwd = max(t for _, _, t in rows)
            fwd = self._send(
                "edge_update",
                cfg.net,
                wire.EDGE_SENDER_BASE + edge,
                wire.SERVER_SENDER,
                wire.dense_message_size(dim),
                t_fwd,
                r,
            )
            if fwd.delivered_at is None or (cutoff is not None and fwd.delivered_at > cutoff):
                continue
            groups.append(EdgeGroup(edge, [cid for cid, _, _ in rows]))
            members_by_edge[edge] = rows
        total_members = sum(len(v) for v in members_by_edge.values())
        if not groups or total_members < cfg.min_updates:
            self._log({"event": "round_failed", "round": r, "reason": "no surviving edge groups"})
            return {}, [], None
        weighted = []
        contributors = []
        with _numeric_guard(r):
            for edge in sorted(members_by_edge):
                for cid, env, _ in members_by_edge[edge]:
                    weighted.append(
                        WeightedUpdate(cid, self._reconstruct(env, pkg.params), env.n_samples)
                    )
                    contributors.append(self._contributor(env))
                    self.registry.record_participation(cid, env.local_eval)
            agg = hierarchical_aggregate(groups, weighted)
            vid_next = wire.format_version(self._next_version_n)
            self._update_cluster_models(vid_next, weighted, pkg.params)
        detail = {"groups": [[g.edge_id, list(g.member_ids)] for g in groups]}
        return detail, contributors, agg

    # ------------------------------------------------------------------
    # decentralised rounds
    # ------------------------------------------------------------------

    def _run_gossip(self) -> None:
        cfg = self.cfg
        graph = GossipGraph.ring(list(range(cfg.n_clients)))
        states = {cid: self.version_params[ROOT_VERSION] for cid in range(cfg.n_clients)}
        reliable = replace(cfg.net, dropout_prob=0.0)
        size = wire.dense_message_size(cfg.arch.parameter_count)
        for r in range(cfg.rounds):
            self._begin_round(r)
            trained = 0
            diverged = 0
            post_train = {}
            reports = {}
            for cid in graph.nodes:
                rt = self.runtimes[cid]
                pkg = ModelPackage(self.latest_vid, states[cid], cfg.arch, cfg.hp)
                out = rt.train_and_evaluate(pkg, r)
                trained += 1
                if isinstance(out, Withheld):
                    diverged += 1
                    post_train[cid] = states[cid]
                    self._log(
                        {"event": "withheld", "round": r, "client_id": cid, "reason": out.reason}
                    )
                    continue
                update, report = out
                post_train[cid] = update
                reports[cid] = report
                self._log(
                    {
                        "event": "local_train",
                        "round": r,
                        "client_id": cid,
                        "loss": float(report.loss),
                        "accuracy": float(report.accuracy),
                        "n_samples": len(rt.shard.train),
                    }
                )
            self._check_all_diverged(r, trained, diverged)
            states = dict(post_train)
            t = self.clock
            for _ in range(cfg.gossip_steps):
                step_end = t
                for a, b in graph.edges:
                    for s_node, d_node in ((a, b), (b, a)):
                        env = self._send("gossip", reliable, s_node, d_node, size, t, r)
                        step_end = max(step_end, env.delivered_at)
                with _numeric_guard(r):
                    states = gossip_round(graph, states)
                t = step_end
            self.clock = t
            with _numeric_guard(r):
                params = node_mean(states)
            contributors = []
            for cid in graph.nodes:
                digest = self._archive_blob(encode_payload_body(post_train[cid]))
                rep = reports.get(cid)
                contributors.append(
                    Contributor(
                        client_id=cid,
                        payload_hash=digest,
                        n_samples=len(self.runtimes[cid].shard.train),
                        update_kind=wire.K_UPDATE_DENSE,
                        base_version=self.latest_vid,
                        loss=float(rep.loss) if rep else None,
                        accuracy=float(rep.accuracy) if rep else None,
                    )
                )
                if rep is not None:
                    self.registry.record_participation(cid, rep)
            detail = {"edges": [list(e) for e in graph.edges], "steps": cfg.gossip_steps}
            self._mint(params, contributors, r, MODE_GOSSIP, detail)
            self._post_round(
                r, cfg.n_clients, cfg.n_clients, self._round_up, self._round_down
            )

    # ------------------------------------------------------------------
    # asynchronous waves
    # ------------------------------------------------------------------

    def _run_async(self) -> None:
        cfg = self.cfg
        q = EventQueue()
        for r in range(cfg.rounds):
            q.schedule(r * cfg.async_round_interval_s, EVENT_TIMER, payload=r)
        sel = [0] * cfg.rounds
        recv = [0] * cfg.rounds
        up = [0] * cfg.rounds
        down = [0] * cfg.rounds
        wave = 0

        def close_wave(w: int) -> None:
            self._post_round(w, sel[w], recv[w], up[w], down[w])

        while True:
            ev = q.pop()
            if ev is None:
                break
            if ev.kind == EVENT_TIMER:
                r = ev.payload
                if r > 0:
                    close_wave(r - 1)
                wave = r
                fraction = self._begin_round(r)
                try:
                    plan = select_clients(
                        self.registry, cfg.selection, fraction, r, cfg.seed, self.latest_vid
                    )
                except SelectionStarvationError:
                    self._starved += 1
                    self._log({"event": "starved", "round": r})
                    continue
                sel[r] = len(plan.selected)
                pkg = self._package()
                size = wire.broadcast_message_size(len(pkg.params))
                trained = 0
                diverged = 0
                for cid in plan.selected:
                    bc = self._send("broadcast", cfg.net, wire.SERVER_SENDER, cid, size, ev.time_s, r)
                    if bc.delivered_at is None:
                        continue
                    out = self.runtimes[cid].handle_broadcast(pkg, r)
                    trained += 1
                    if isinstance(out, Withheld):
                        if out.reason == WITHHELD_DIVERGENCE:
                            diverged += 1
                        self._log(
                            {"event": "withheld", "round": r, "client_id": cid, "reason": out.reason}
                        )
                        continue
                    evr = out.local_eval
                    self._log(
                        {
                            "event": "local_train",
                            "round": r,
                            "client_id": cid,
                            "loss": float(evr.loss),
                            "accuracy": float(evr.accuracy),
                            "n_samples": out.n_samples,
                        }
                    )
                    upm = self._send(
                        "update", cfg.net, cid, wire.SERVER_SENDER, out.byte_size, bc.delivered_at, r
                    )
                    if upm.delivered_at is not None:
                        q.schedule(upm.delivered_at, EVENT_DELIVER, payload=(cid, out))
                self._check_all_diverged(r, trained, diverged)
                up[r] += self._round_up
                down[r] += self._round_down
            else:
                cid, env = ev.payload
                base_rec = self.ledger.get(env.base_version_id)
                parent = self.version_params[self.latest_vid]
                with _numeric_guard(wave):
                    update = self._reconstruct(env, self.version_params[env.base_version_id])
                    merged_core = async_merge(
                        parent if not self.multitask else ParameterVector(
                            parent.values[: self.shared_len]
                        ),
                        update,
                        wave,
                        base_rec.created_at_round,
                        cfg.async_alpha0,
                        cfg.async_decay,
                    )
                params = (
                    self._splice_head(merged_core, parent) if self.multitask else merged_core
                )
                contributor = self._contributor(env)
                detail = {
                    "alpha0": cfg.async_alpha0,
                    "decay": cfg.async_decay,
                    "current_round": wave,
                    "base_round": base_rec.created_at_round,
                }
                self._mint(params, [contributor], wave, MODE_ASYNC, detail)
                self.registry.record_participation(cid, env.local_eval)
                recv[wave] += 1
        close_wave(cfg.rounds - 1)

    # ------------------------------------------------------------------
    # entry point and artifacts
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        if cfg.aggregation_mode == MODE_DECENTRALISED:
            self._run_gossip()
        elif cfg.aggregation_mode == MODE_ASYNC:
            self._run_async()
        else:
            for r in range(cfg.rounds):
                self._run_sync_round(r)
        if self._starved == cfg.rounds:
            raise SelectionStarvationError(
                f"selection starved in every one of {cfg.rounds} rounds"
            )
        result = RunResult(
            run_id=cfg.run_id,
            out_dir=self.out_dir,
            final_version_id=self.latest_vid,
            rounds=cfg.rounds,
            metrics=self.metrics,
            ledger=self.ledger,
            version_params=self.version_params,
        )
        if self.out_dir is not None:
            self._write_artifacts()
        return result

    def _write_artifacts(self) -> None:
        cfg = self.cfg
        out = self.out_dir
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(
            json.dumps(cfg.canonical, sort_keys=True, indent=2) + "\n"
        )
        _write_jsonl(out / "metrics.jsonl", self.metrics)
        _write_jsonl(out / "event_log.jsonl", self.events)
        _write_jsonl(out / "deployments.jsonl", self.deployment_rows)
        if cfg.has(FLAG_CO_VERSIONING):
            self.ledger.write_jsonl(out / "ledger.jsonl")
            pdir = out / "payloads"
            pdir.mkdir(exist_ok=True)
            for digest in sorted(self._archive):
                (pdir / f"{digest}.bin").write_bytes(self._archive[digest])
        if cfg.has(FLAG_REGISTRY):
            self.registry.write_jsonl(out / "registry.jsonl")
        if cfg.has(FLAG_INCENTIVES):
            _write_jsonl(out / "incentives.jsonl", incentive_entries_json(self.accounts))
        save_checkpoint(out / "checkpoint.json", self.version_params[self.latest_vid], cfg.arch)
        meta = {
            "run_id": cfg.run_id,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_seconds": time.monotonic() - self._t_start,
        }
        (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    return ExperimentRunner(cfg, out_dir).run()
