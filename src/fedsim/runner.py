"""Experiment driver: one deterministic run from config to artifacts.

The driver owns the clock. Synchronous modes advance it round by round;
the async mode replays an event queue of wave timers and message
deliveries. Every mode runs the same client step, `_client_updates`: each
delivered broadcast goes through ClientRuntime.handle_broadcast (train,
evaluate, upload gate, package), the outcome is logged, and the upload
candidates come back for the mode to send and aggregate. Secure and gossip
rounds use every client's result before their first send, so their clients
train in lockstep: each client's start stage, one train_lockstep over all
of them, then each client's finish stage and log rows in delivery order,
as one at a time would give them. A synchronous round ends in
`_run_sync_round` alone: its mode's exchange returns the arrived envelopes
in ledger order, with their aggregate, or why the round failed with the
uploads that arrived all the same. The round archives, credits and mints,
or logs the failure; either way it drops the clients that did not answer.
Every random draw is keyed by the master seed plus a salt, so a config
replays to byte-identical artifacts (run_meta.json, which records
wall-clock timestamps, is the single exception).

Three rules have one owner each. The multi-task segment belongs to
client's update_core, dense_update and with_head, keyed by `body_len`: the
runner derives it once from the arch, hands it to each ClientRuntime and
records it in the ledger for replay. A non-finite aggregate raises NonFiniteError, which
`run` turns into one DivergenceError naming the round `_begin_round` opened
last (in async, the open wave). A round's metrics counters are added where
their events happen (`_send`, `_select`, `_mint`); `_post_round` reads and
drops them. The runner holds the live model alone (`version_params`); the
ledger and payload archive hold the versions, and an async upload carries its base.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import struct
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import wire
from .aggregation import (
    MODE_ASYNC,
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
    ClientRuntime,
    ModelPackage,
    UpdateEnvelope,
    Withheld,
    WITHHELD_DIVERGENCE,
    build_envelope,
    dense_update,
    encode_payload_body,
    round_train_seed,
    update_core,
    with_head,
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
from .errors import (
    ConfigError,
    DivergenceError,
    IntegrityError,
    NonFiniteError,
    SecureAbortError,
    SelectionStarvationError,
)
from .models import (
    Dataset,
    ParameterVector,
    accuracies,
    evaluate,
    local_train,
    save_checkpoint,
    seq_sum,
    train_lockstep,
    unpack,
)
from .monitoring import (
    ACTION_NONE,
    DECISION_DEPLOY,
    MonitorState,
    accrue_incentive,
    decide_deploy,
    evaluate_global,
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
    final_version_id: str
    rounds: int
    metrics: list[dict]
    ledger: VersionLedger
    round_failures: list[dict]  # the round_failed events, in order


@dataclass
class _RoundFailure:
    """Why a synchronous round's exchange aggregated nothing, and the
    uploads that arrived all the same."""

    reason: str
    arrivals: list[UpdateEnvelope]


def _flip_labels(ds: Dataset, fraction: float, rng: np.random.Generator) -> Dataset:
    """Move a seeded fraction of labels to a different class."""
    n = len(ds)
    pick = rng.random(n) < fraction
    offsets = rng.integers(1, ds.num_classes, size=n)
    labels = ds.labels.copy()
    labels[pick] = (labels[pick] + offsets[pick]) % ds.num_classes
    return Dataset._derived(ds.features, labels, ds.num_classes)


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
        shards = partition(cfg.partition_spec, cfg.synthetic, cfg.n_clients)
        if cfg.has(FLAG_HETEROGENEOUS):
            shards = [
                augment_balance(s, cfg.augment_target, cfg.synthetic.noise_sigma, seed=cfg.seed)
                for s in shards
            ]
        # shard sizes are known only once the split has run
        smallest = min(shards, key=lambda s: len(s.train))
        if cfg.hp.batch_size > len(smallest.train):
            raise ConfigError(
                f"hp.batch_size {cfg.hp.batch_size} exceeds the smallest training shard "
                f"({len(smallest.train)} samples, client {smallest.client_id})"
            )
        self.holdout = make_holdout(cfg.synthetic, cfg.holdout_n, seed=cfg.seed)
        # only the monitor reads its stream
        self.monitor_stream = (
            make_holdout(cfg.synthetic, cfg.holdout_n, seed=MONITOR_STREAM_SALT)
            if cfg.has(FLAG_MONITOR)
            else None
        )
        # written once set-up has passed its checks, so a run that fails
        # later still records what it ran
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / "config.json").write_text(
                json.dumps(cfg.canonical, sort_keys=True, indent=2) + "\n"
            )

        self.registry = ClientRegistry()
        resources = wire.id_streams([cfg.seed, RESOURCE_SALT, np.arange(cfg.n_clients)])
        for shard, (cid, rng) in zip(shards, resources):
            self.registry.register(cid, float(rng.uniform()), len(shard.train), 0.0)

        # the length of the shared body an update covers; None: the whole vector
        self.body_len = cfg.arch.shared_parameter_count if cfg.has(FLAG_MULTITASK) else None
        self.runtimes = {
            cid: ClientRuntime(
                cid,
                shard,
                gate=cfg.gate,
                compression=cfg.compression,
                body_len=self.body_len,
            )
            for cid, shard in enumerate(shards)
        }

        pkg = create_job(cfg.arch, cfg.hp, cfg.init_mode)
        self.ledger = VersionLedger()
        # content hash -> sha256 of the blob archived under it, which is enough
        # to catch a second blob with the same hash; the blob itself is
        # appended to a payloads/ segment when first archived, and only the
        # 32-byte check stays here
        self._archive: dict[str, bytes] = {}
        self._segments: wire.SegmentWriter | None = None
        if cfg.has(FLAG_CO_VERSIONING) and self.out_dir is not None:
            payload_dir = self.out_dir / "payloads"
            payload_dir.mkdir(parents=True, exist_ok=True)
            # a rerun into the directory starts a fresh archive, as it
            # rewrites every other artifact
            for stale in payload_dir.glob("*.pack"):
                stale.unlink()
            self._segments = wire.SegmentWriter(payload_dir)
        root_hash = self._archive_blob(wire.params_bytes(pkg.params.values))
        self.ledger.record(
            GlobalVersionRecord(
                ROOT_VERSION, None, root_hash, (), 0, MODE_INIT,
                detail={"content_hash": wire.CONTENT_HASH},
            )
        )
        self.version_params: dict[str, ParameterVector] = {ROOT_VERSION: pkg.params}
        self.latest_vid = ROOT_VERSION

        self.cluster_assignment: dict[int, int] | None = None
        # cluster index -> the model deployed to its members, replaced
        # whenever a version is minted
        self.cluster_models: dict[int, ParameterVector] = {}
        if cfg.has(FLAG_CLUSTER):
            try:
                result = cluster_clients(self._cluster_features(), cfg.cluster_k, cfg.seed)
            except FloatingPointError as e:
                raise DivergenceError(f"cluster probe: {e} while centring") from None
            self.cluster_assignment = result.assignment
            self.cluster_models = {c: pkg.params for c in range(cfg.cluster_k)}

        self.mon_state = MonitorState(
            window_size=cfg.monitor_window,
            threshold=cfg.monitor_threshold,
            cooldown_rounds=cfg.monitor_cooldown,
        )
        self._monitor_params: ParameterVector | None = None
        self.incentive_rows: list[dict] = []

        self.clock = 0.0
        self.metrics: list[dict] = []
        self.events: list[dict] = []
        self.deployment_rows: list[dict] = []
        self._msg_seq = 0
        self._starved = 0
        self._boost_next = False
        self._to_reactivate: list[int] = []
        self._round = 0
        # per-round counters for metrics.jsonl, dropped once the row is written
        self._tally: defaultdict[int, Counter] = defaultdict(Counter)
        self._round_max_time = 0.0
        self._t_start = time.monotonic()

    def _cluster_features(self) -> dict[int, np.ndarray]:
        cfg = self.cfg
        if cfg.cluster_features == "label_distribution":
            return {cid: label_distribution(rt.shard) for cid, rt in self.runtimes.items()}
        # update_direction: probe one local train from the initial model
        init = self.version_params[ROOT_VERSION]
        vectors = {}
        for cid, rt in self.runtimes.items():
            hp = replace(cfg.hp, seed=round_train_seed(cfg.hp.seed, cid, _PROBE_ROUND))
            trained = local_train(init, cfg.arch, rt.shard.train, hp)
            vectors[cid] = trained.values - init.values
        return vectors

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------

    def _log(self, row: dict) -> None:
        self.events.append(row)

    def _send(self, label, sender, receiver, nbytes, sent_at, round_index):
        self._msg_seq += 1
        env = send(self.cfg.net, sender, receiver, nbytes, sent_at, self._msg_seq)
        direction = "bytes_down" if sender == wire.SERVER_SENDER else "bytes_up"
        self._tally[round_index][direction] += nbytes
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
        self._round = r
        for cid in self._to_reactivate:
            self.registry.reactivate(cid)
            self._log({"event": "registry", "round": r, "client_id": cid, "change": "reactivated"})
        self._to_reactivate = []
        if self.cfg.drift_round is not None and r == self.cfg.drift_round:
            self._inject_drift(r)
        self._round_max_time = self.clock
        fraction = 1.0 if self._boost_next else self.cfg.fraction
        if self._boost_next:
            self._log({"event": "fine_tune_boost", "round": r})
        self._boost_next = False
        return fraction

    def _inject_drift(self, r: int) -> None:
        cfg = self.cfg
        frac = cfg.drift_flip_fraction
        # the clients' streams, then the monitor stream's under id n_clients;
        # each id draws from its own stream, so skipping one moves no other
        streams = wire.id_streams([cfg.seed, DRIFT_SALT, np.arange(cfg.n_clients + 1)])
        for rt, (_, rng) in zip(self.runtimes.values(), streams):
            train = _flip_labels(rt.shard.train, frac, rng)
            test = _flip_labels(rt.shard.test, frac, rng)
            rt.shard = replace(rt.shard, train=train, test=test)
        if self.monitor_stream is not None:
            _, rng = next(streams)
            self.monitor_stream = _flip_labels(self.monitor_stream, frac, rng)
        self._log({"event": "drift_injected", "round": r, "flip_fraction": frac})

    def _drop_nonresponders(self, r: int, selected, responded) -> None:
        for cid in sorted(set(selected) - set(responded)):
            self.registry.mark_dropped(cid)
            self._to_reactivate.append(cid)
            self._log({"event": "registry", "round": r, "client_id": cid, "change": "dropped"})

    def _reconstruct(self, env: UpdateEnvelope, base: ParameterVector) -> ParameterVector:
        """The dense update a payload stands for, against its broadcast base."""
        return dense_update(env.payload, update_core(base.values, self.body_len))

    def _archive_blob(self, blob: bytes) -> str:
        """Content hash of `blob`, archived under co-versioning: appended to
        a payloads/ segment the first time it is seen, when the run has an
        out_dir."""
        digest = wire.content_hash(blob)
        if self.cfg.has(FLAG_CO_VERSIONING):
            check = hashlib.sha256(blob).digest()
            held = self._archive.get(digest)
            if held is None:
                self._archive[digest] = check
                if self._segments is not None:
                    self._segments.append(digest, blob)
            elif held != check:
                raise IntegrityError(f"two different payloads hash to [{digest}]")
        return digest

    def _accept(self, env: UpdateEnvelope) -> Contributor:
        """Archive an aggregated upload and credit its client's participation."""
        digest = self._archive_blob(encode_payload_body(env.payload))
        ev = env.local_eval
        self.registry.record_participation(env.client_id, ev)
        return Contributor(
            client_id=env.client_id,
            payload_hash=digest,
            n_samples=env.n_samples,
            update_kind=env.update_kind,
            base_version=env.base_version_id,
            loss=float(ev.loss),
            accuracy=float(ev.accuracy),
        )

    def _mint(self, params, contributors, r, mode, detail) -> None:
        vid = wire.format_version(len(self.ledger))
        self._tally[r]["n_received"] += len(contributors)
        segment = SEGMENT_FULL
        if self.body_len is not None:
            # replay needs the split point; payloads alone cannot supply it
            # once they are compressed
            segment, detail = SEGMENT_BODY, {**detail, "body_len": self.body_len}
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
        self.version_params = {vid: params}
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
            self.incentive_rows += accrue_incentive(r, shares, self.cfg.incentive_rate)

    def _package(self) -> ModelPackage:
        return ModelPackage(
            self.latest_vid, self.version_params[self.latest_vid], self.cfg.arch, self.cfg.hp
        )

    # ------------------------------------------------------------------
    # per-round wrap-up: deploy, monitor, metrics
    # ------------------------------------------------------------------

    def _post_round(self, r: int) -> None:
        cfg = self.cfg
        tally = self._tally.pop(r, Counter())
        params = self.version_params[self.latest_vid]
        report = evaluate_global(params, cfg.arch, self.holdout)
        triggers = 0
        decision = decide_deploy(report, cfg.deploy_policy)
        if decision.action == DECISION_DEPLOY:
            targets = self.registry.active_ids()  # ascending ids
            if targets:
                # each target is scored on the model it is deployed: its
                # cluster's under the selector, else the version itself
                selector = cfg.has(FLAG_DEPLOYMENT_SELECTOR)
                if selector:
                    layers = {c: unpack(m, cfg.arch) for c, m in self.cluster_models.items()}
                    models = [layers[self.cluster_assignment[t]] for t in targets]
                else:
                    models = [unpack(params, cfg.arch)] * len(targets)
                accs = accuracies(
                    (model, self.runtimes[t].shard.test) for model, t in zip(models, targets)
                )
                local_mean = seq_sum(accs) / len(accs)
                self._monitor_params = params
                self.deployment_rows.append(
                    {
                        "round": r,
                        "version_id": self.latest_vid,
                        "n_targets": len(targets),
                        "selector": selector,
                        "local_acc_mean": float(local_mean),
                    }
                )
                self._log(
                    {
                        "event": "deploy",
                        "round": r,
                        "version_id": self.latest_vid,
                        "n_targets": len(targets),
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
                self._boost_next = True
        self.metrics.append(
            {
                "round": r,
                "version_id": self.latest_vid,
                "global_acc": float(report.accuracy),
                "global_loss": float(report.loss),
                "n_selected": tally["n_selected"],
                "n_received": tally["n_received"],
                "bytes_up": tally["bytes_up"],
                "bytes_down": tally["bytes_down"],
                "triggers": triggers,
            }
        )

    # ------------------------------------------------------------------
    # the client step, shared by every mode
    # ------------------------------------------------------------------

    def _select(self, r: int, fraction: float):
        """This round's selected client ids, or None when selection starves."""
        try:
            selected = select_clients(self.registry, self.cfg.selection, fraction, r, self.cfg.seed)
        except SelectionStarvationError:
            self._starved += 1
            self._log({"event": "starved", "round": r})
            return None
        self._tally[r]["n_selected"] += len(selected)
        return selected

    def _broadcast(self, r, selected, pkg, sent_at):
        """Send `pkg` to each selected client in turn, yielding (client,
        delivered_at) for each one it reaches."""
        size = wire.broadcast_message_size(len(pkg.params))
        for cid in selected:
            env = self._send("broadcast", wire.SERVER_SENDER, cid, size, sent_at, r)
            if env.delivered_at is not None:
                yield cid, env.delivered_at

    def _client_updates(self, r, deliveries, pkg_for, lockstep=False):
        """Run the client step for each delivered (client, time): train,
        evaluate, gate and package, and log the outcome. Yields (client,
        time, envelope) for each upload candidate.

        One client at a time, each through handle_broadcast, as `deliveries`
        yields them. In `lockstep`, every delivered client trains and is
        scored first, as lanes of train_lockstep's stacks, and then each is
        finished and logged in delivery order: the same outcomes, events
        and draws.

        Raises DivergenceError once `deliveries` runs out if every client
        that trained diverged.
        """
        if lockstep:
            outcomes = self._lockstep_outcomes(r, list(deliveries), pkg_for)
        else:
            outcomes = (
                (cid, t, self.runtimes[cid].handle_broadcast(pkg_for(cid), r))
                for cid, t in deliveries
            )
        trained = diverged = 0
        for cid, t, out in outcomes:
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
            yield cid, t, out
        if trained and diverged == trained:
            raise DivergenceError(f"round {r}: every training client diverged")

    def _lockstep_outcomes(self, r, deliveries, pkg_for):
        """(client, time, handle_broadcast's outcome) for each delivery, the
        training and scoring done for all of them at once."""
        pkgs = [pkg_for(cid) for cid, _ in deliveries]
        runtimes = [self.runtimes[cid] for cid, _ in deliveries]
        starts = [rt.start(pkg, r) for rt, pkg in zip(runtimes, pkgs)]
        lanes = [
            (vec, hp.seed, rt.shard.train, rt.shard.test) for (vec, hp), rt in zip(starts, runtimes)
        ]
        results = train_lockstep(lanes, self.cfg.arch, self.cfg.hp)
        for (cid, t), rt, pkg, (trained, report) in zip(deliveries, runtimes, pkgs, results):
            yield cid, t, rt.finish(pkg, r, trained, report)

    def _upload(self, label, sender, receiver, nbytes, sent_at, r, cutoff=None) -> float | None:
        """Send one upload; its arrival time, or None if it is lost or lands
        after `cutoff`."""
        env = self._send(label, sender, receiver, nbytes, sent_at, r)
        if env.delivered_at is None or (cutoff is not None and env.delivered_at > cutoff):
            return None
        return env.delivered_at

    # ------------------------------------------------------------------
    # synchronous rounds (fedavg, secure, hierarchical)
    # ------------------------------------------------------------------

    def _update_cluster_models(self, params, weighted, parent) -> None:
        """Each cluster's model after a mint (none without clusters): the
        fedavg of its members this round, or the new version `params`."""
        for c in self.cluster_models:
            members = [w for w in weighted if self.cluster_assignment[w.client_id] == c]
            self.cluster_models[c] = (
                with_head(fedavg(members), parent.values, self.body_len) if members else params
            )

    def _run_sync_round(self, r: int) -> None:
        cfg = self.cfg
        selected = self._select(r, self._begin_round(r))
        if selected is None:
            self._post_round(r)
            return
        pkg = self._package()
        # the upload deadline, and where the round's clock ends
        cutoff = None if cfg.deadline_s is None else self.clock + cfg.deadline_s
        delivered = list(self._broadcast(r, selected, pkg, self.clock))
        exchange = {
            MODE_SECURE: self._secure_exchange,
            MODE_HIERARCHICAL: self._hierarchical_exchange,
        }.get(cfg.aggregation_mode, self._fedavg_exchange)
        out = exchange(r, pkg, delivered, cutoff)
        self.clock = max(self.clock, self._round_max_time) if cutoff is None else cutoff
        if isinstance(out, _RoundFailure):
            # what arrived is neither archived nor credited; only the
            # clients whose upload never arrived are dropped
            self._log({"event": "round_failed", "round": r, "reason": out.reason})
            self._drop_nonresponders(r, selected, [env.client_id for env in out.arrivals])
            self._post_round(r)
            return
        agg, arrivals, weighted, detail = out
        contributors = [self._accept(env) for env in arrivals]
        self._drop_nonresponders(r, selected, [env.client_id for env in arrivals])
        params = with_head(agg, pkg.params.values, self.body_len)
        self._mint(params, contributors, r, cfg.aggregation_mode, detail)
        self._update_cluster_models(params, weighted, pkg.params)
        self._post_round(r)

    def _fedavg_exchange(self, r, pkg, delivered, cutoff):
        arrivals = []
        for cid, t, env in self._client_updates(r, delivered, lambda _: pkg):
            t_up = self._upload("update", cid, wire.SERVER_SENDER, env.byte_size, t, r, cutoff)
            if t_up is not None:
                arrivals.append(env)
        if len(arrivals) < self.cfg.min_updates:
            return _RoundFailure("too few updates", arrivals)
        arrivals.sort(key=lambda env: env.client_id)
        weighted = [
            WeightedUpdate(env.client_id, self._reconstruct(env, pkg.params), env.n_samples)
            for env in arrivals
        ]
        return fedavg(weighted), arrivals, weighted, {}

    def _secure_exchange(self, r, pkg, delivered, cutoff):
        # masks are drawn over every committed client, so all train before any sends
        commits = [
            (t, env)
            for _, t, env in self._client_updates(r, delivered, lambda _: pkg, lockstep=True)
        ]
        if len(commits) < 2:
            return _RoundFailure("fewer than 2 masking participants", [])
        ids = [env.client_id for _, env in commits]
        round_seed = wire.fnv1a64(struct.pack("<QI", self.cfg.seed & 0xFFFFFFFFFFFFFFFF, r))
        pads = pairwise_pads(ids, round_seed)
        # each weighted update turns into its masked submission in place, one
        # row per participant in pads.ids order; an overflow is left to
        # ParameterVector, which raises NonFiniteError
        row_of = {cid: a for a, cid in enumerate(pads.ids)}
        masked = np.empty((len(ids), len(commits[0][1].payload)))
        with np.errstate(over="ignore", invalid="ignore"):
            for _, env in commits:
                np.multiply(env.payload.values, env.n_samples, out=masked[row_of[env.client_id]])
        for cid in pads.ids:
            mask_submission(cid, masked, pads)
        total_n = sum(env.n_samples for _, env in commits)
        arrivals = []
        for t, env in commits:
            cid = env.client_id
            sub = build_envelope(
                cid, r, pkg.version_id, env.n_samples, wire.K_UPDATE_MASKED,
                ParameterVector(masked[row_of[cid]]), env.local_eval,
            )
            t_up = self._upload(
                "masked_update", cid, wire.SERVER_SENDER, sub.byte_size, t, r, cutoff
            )
            if t_up is not None:
                arrivals.append(sub)
        try:
            subs = [(env.client_id, env.payload.values) for env in arrivals]
            agg = secure_sum(subs, total_n, ids)
        except SecureAbortError as e:
            self._log({"event": "secure_abort", "round": r, "reason": str(e)})
            return _RoundFailure("masking participant lost", arrivals)
        arrivals.sort(key=lambda env: env.client_id)
        # masked submissions reveal no per-client update to cluster
        return agg, arrivals, [], {}

    def _hierarchical_exchange(self, r, pkg, delivered, cutoff):
        edge_arrivals: dict[int, list] = {}
        for cid, t, env in self._client_updates(r, delivered, lambda _: pkg):
            edge = cid % self.cfg.n_edges
            t_edge = self._upload("update", cid, wire.EDGE_SENDER_BASE + edge, env.byte_size, t, r)
            if t_edge is not None:
                edge_arrivals.setdefault(edge, []).append((cid, env, t_edge))
        size = wire.dense_message_size(len(update_core(pkg.params.values, self.body_len)))
        groups, arrivals = [], []
        for edge in sorted(edge_arrivals):
            rows = sorted(edge_arrivals[edge], key=lambda a: a[0])
            t_fwd = max(t for _, _, t in rows)
            sender = wire.EDGE_SENDER_BASE + edge
            fwd = self._upload("edge_update", sender, wire.SERVER_SENDER, size, t_fwd, r, cutoff)
            if fwd is not None:
                groups.append(EdgeGroup(edge, [cid for cid, _, _ in rows]))
                arrivals += [env for _, env, _ in rows]
        # every group has a member, so min_updates >= 1 also fails a round with
        # none; one whose groups survived with too few members has too few updates
        if len(arrivals) < self.cfg.min_updates:
            reason = "too few updates" if groups else "no surviving edge groups"
            return _RoundFailure(reason, arrivals)
        weighted = [
            WeightedUpdate(env.client_id, self._reconstruct(env, pkg.params), env.n_samples)
            for env in arrivals
        ]
        detail = {"groups": [[g.edge_id, list(g.member_ids)] for g in groups]}
        return hierarchical_aggregate(groups, weighted), arrivals, weighted, detail

    # ------------------------------------------------------------------
    # decentralised rounds
    # ------------------------------------------------------------------

    def _run_gossip(self) -> None:
        cfg = self.cfg
        graph = GossipGraph.ring(list(range(cfg.n_clients)))
        states = {cid: self.version_params[ROOT_VERSION] for cid in range(cfg.n_clients)}
        size = wire.dense_message_size(cfg.arch.parameter_count)
        for r in range(cfg.rounds):
            self._begin_round(r)
            self._tally[r]["n_selected"] += cfg.n_clients
            # every node trains from its own state; no broadcast precedes it
            nodes = [(cid, self.clock) for cid in graph.nodes]
            pkgs = {
                cid: ModelPackage(self.latest_vid, s, cfg.arch, cfg.hp) for cid, s in states.items()
            }
            updates = self._client_updates(r, nodes, pkgs.get, lockstep=True)
            envs = {cid: env for cid, _, env in updates}
            post_train = {
                cid: envs[cid].payload if cid in envs else states[cid] for cid in graph.nodes
            }
            states = dict(post_train)
            t = self.clock
            for _ in range(cfg.gossip_steps):
                step_end = t
                for a, b in graph.edges:
                    for s_node, d_node in ((a, b), (b, a)):
                        env = self._send("gossip", s_node, d_node, size, t, r)
                        step_end = max(step_end, env.delivered_at)
                states = gossip_round(graph, states)
                t = step_end
            self.clock = t
            params = node_mean(states)
            contributors = []
            for cid in graph.nodes:
                if cid in envs:
                    contributors.append(self._accept(envs[cid]))
                    continue
                # a withheld node shares its pre-training state and has no evaluation
                digest = self._archive_blob(encode_payload_body(post_train[cid]))
                n = len(self.runtimes[cid].shard.train)
                kind = wire.K_UPDATE_DENSE
                contributors.append(Contributor(cid, digest, n, kind, self.latest_vid))
            detail = {"edges": [list(e) for e in graph.edges], "steps": cfg.gossip_steps}
            self._mint(params, contributors, r, MODE_GOSSIP, detail)
            self._post_round(r)

    # ------------------------------------------------------------------
    # asynchronous waves
    # ------------------------------------------------------------------

    def _run_async(self) -> None:
        cfg = self.cfg
        q = EventQueue()
        for r in range(cfg.rounds):
            q.schedule(r * cfg.async_round_interval_s, EVENT_TIMER, payload=r)
        while True:
            ev = q.pop()
            if ev is None:
                break
            if ev.kind == EVENT_TIMER:
                r = ev.payload
                if r > 0:
                    self._post_round(r - 1)
                selected = self._select(r, self._begin_round(r))
                if selected is None:
                    continue
                pkg = self._package()
                # lazy: each broadcast goes out just before its client trains
                delivered = self._broadcast(r, selected, pkg, ev.time_s)
                for cid, t, env in self._client_updates(r, delivered, lambda _: pkg):
                    t_up = self._upload("update", cid, wire.SERVER_SENDER, env.byte_size, t, r)
                    if t_up is not None:
                        q.schedule(t_up, EVENT_DELIVER, payload=(env, pkg.params))
            else:
                # an update merges into the wave that is open when it arrives
                wave = self._round
                env, base = ev.payload
                base_rec = self.ledger.get(env.base_version_id)
                parent = self.version_params[self.latest_vid]
                merged_core = async_merge(
                    ParameterVector(update_core(parent.values, self.body_len)),
                    self._reconstruct(env, base),
                    wave,
                    base_rec.created_at_round,
                    cfg.async_alpha0,
                    cfg.async_decay,
                )
                detail = {
                    "alpha0": cfg.async_alpha0,
                    "decay": cfg.async_decay,
                    "current_round": wave,
                    "base_round": base_rec.created_at_round,
                }
                params = with_head(merged_core, parent.values, self.body_len)
                self._mint(params, [self._accept(env)], wave, MODE_ASYNC, detail)
        self._post_round(cfg.rounds - 1)

    # ------------------------------------------------------------------
    # entry point and artifacts
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        try:
            if cfg.aggregation_mode == MODE_DECENTRALISED:
                self._run_gossip()
            elif cfg.aggregation_mode == MODE_ASYNC:
                self._run_async()
            else:
                for r in range(cfg.rounds):
                    self._run_sync_round(r)
        except NonFiniteError as e:
            # every update can be finite while the aggregate of them is not
            raise DivergenceError(f"round {self._round}: {e}") from None
        if self._starved == cfg.rounds:
            raise SelectionStarvationError(
                f"selection starved in every one of {cfg.rounds} rounds"
            )
        result = RunResult(
            run_id=cfg.run_id,
            final_version_id=self.latest_vid,
            rounds=cfg.rounds,
            metrics=self.metrics,
            ledger=self.ledger,
            round_failures=[e for e in self.events if e["event"] == "round_failed"],
        )
        if self.out_dir is not None:
            self._write_artifacts()
        return result

    def _write_artifacts(self) -> None:
        cfg = self.cfg
        out = self.out_dir
        wire.write_jsonl(out / "metrics.jsonl", self.metrics)
        wire.write_jsonl(out / "event_log.jsonl", self.events)
        wire.write_jsonl(out / "deployments.jsonl", self.deployment_rows)
        if cfg.has(FLAG_CO_VERSIONING):
            self.ledger.write_jsonl(out / "ledger.jsonl")
        if cfg.has(FLAG_REGISTRY):
            self.registry.write_jsonl(out / "registry.jsonl")
        if cfg.has(FLAG_INCENTIVES):
            # each client's rows in the order they accrued
            rows = sorted(self.incentive_rows, key=lambda row: row["client_id"])
            wire.write_jsonl(out / "incentives.jsonl", rows)
        save_checkpoint(out / "checkpoint.json", self.version_params[self.latest_vid], cfg.arch)
        meta = {
            "run_id": cfg.run_id,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_seconds": time.monotonic() - self._t_start,
        }
        (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    return ExperimentRunner(cfg, out_dir).run()
