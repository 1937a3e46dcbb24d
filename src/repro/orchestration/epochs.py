"""The Figure 2 driver: the RSP as a long-running service.

A deployed RSP runs forever — clients sync periodically, token quotas
renew daily, inferences firm up as histories lengthen, and the server
re-runs maintenance on a schedule.  This driver simulates that: the
horizon is split into epochs, and in each epoch every client observes its
trace so far, stages only the *new* interactions (repeated observation
never double-uploads), syncs under quota, and the server ingests whatever
the anonymity network has released.  It is the one implementation of the
architecture loop: the single-shot pipeline of
:mod:`repro.orchestration.pipeline` is one epoch of it, scored.

The epoch reports expose the quantities a service team would watch on a
dashboard: record growth, opinion churn, fraud rejections, coverage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.client.app import RSPClient
from repro.core.classifier import OpinionClassifier
from repro.core.features import CatalogDirectory
from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.replication import ReplicatedRSPServer, ReplicationChannel
from repro.faults import FaultInjector, FaultPlan
from repro.ingest import BoundedIntakeQueue
from repro.privacy.anonymity import AnonymityNetwork, batching_network
from repro.reshard import Autoscaler, AutoscalePolicy, ReshardOp, perform
from repro.sensing.policy import duty_cycled_policy
from repro.sensing.sensors import generate_trace, trace_carries
from repro.sensing.wearables import valence_feature
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.service.server import MaintenanceReport, RSPServer
from repro.telemetry import Telemetry
from repro.util.clock import DAY
from repro.world.behavior import SimulationResult
from repro.world.population import Town


@dataclass(frozen=True)
class EpochReport:
    """What one epoch did to the service.

    The robustness fields are per-epoch deltas: ``dropped_messages``
    counts network losses plus envelopes that arrived while the endpoint
    was down, ``rejected_envelopes`` counts token/validation bounces,
    ``duplicates_suppressed`` counts idempotent-dedup hits, and
    ``retransmissions`` counts client re-sends.  ``maintenance`` is
    ``None`` when the maintenance cycle was deferred because the server
    was down at epoch end (``server_deferred``).
    """

    epoch: int
    end_time: float
    new_records: int
    total_records: int
    total_histories: int
    n_opinions: int
    envelopes_deferred: int
    maintenance: MaintenanceReport | None
    rejected_envelopes: int = 0
    dropped_messages: int = 0
    duplicates_suppressed: int = 0
    retransmissions: int = 0
    crash_restores: int = 0
    server_deferred: bool = False


@dataclass
class EpochsOutcome:
    """The long-running deployment's final state and per-epoch history."""

    #: The service endpoint.
    server: RSPServer
    clients: dict[str, RSPClient]
    reports: list[EpochReport] = field(default_factory=list)
    injector: FaultInjector | None = None
    #: The deployment-wide observability sink shared by every component of
    #: the run; the :class:`EpochReport` robustness fields are derived from
    #: its counters (see docs/OBSERVABILITY.md).
    telemetry: Telemetry | None = None
    #: The primary/replica pair when the run was replicated (``None``
    #: otherwise); after a scripted failover, ``server`` above already
    #: points at the promoted replica.
    replication: ReplicatedRSPServer | None = None
    #: SHA-256 over every rendered serve-path response of the run, in
    #: query order (``None`` unless ``serve_queries > 0``).  Contractually
    #: deployment-invariant: shards, resharding, batching, durability,
    #: and cache temperature never change it (the golden grid in
    #: ``tests/scale/test_golden_digest.py``).
    serve_digest: str | None = None
    #: Every topology change the run applied, as ``(epoch, op)`` pairs —
    #: scheduled ops and autoscaler decisions alike.  Contractually
    #: *absent* from every digest above: resharding never changes reports,
    #: summaries, serve responses, or AGGREGATE telemetry
    #: (``tests/scale/test_golden_digest.py``).
    reshard_ops: list = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.reports)

    def reports_digest(self) -> str:
        """A canonical byte-for-byte rendering of the per-epoch reports.

        Two runs of the same world, config, and :class:`FaultPlan` seed
        must produce identical digests — the determinism guard that keeps
        fault injection inside the ``repro.util.rng`` discipline.
        """
        return "\n".join(repr(report) for report in self.reports)


def run_epochs(
    town: Town,
    result: SimulationResult,
    config: PipelineConfig | None = None,
    n_epochs: int = 6,
    classifier: OpinionClassifier | None = None,
    max_users: int | None = None,
    fault_plan: FaultPlan | None = None,
    n_shards: int = 1,
    durable_dir: str | Path | None = None,
    replicate: bool = False,
    snapshot_every: int = 1,
    queue_depth: int | None = None,
    serve_queries: int = 0,
    reshard_schedule: dict[int, list[ReshardOp]] | None = None,
    autoscale: AutoscalePolicy | None = None,
) -> EpochsOutcome:
    """Operate the service over ``n_epochs`` equal slices of the horizon.

    ``n_shards`` sizes the :class:`RSPServer`'s store partitions.  Every
    report this driver emits is contractually bit-identical for every
    shard count (``tests/scale/test_golden_digest.py``), so the flag is a
    pure performance knob.

    A ``config`` with ``use_wearables`` feeds the wearable affect channel
    into inference: the classifier trains on it, and every client observes
    its per-entity valence so far at each epoch end.

    With a :class:`FaultPlan`, the run is executed under deterministic
    fault injection: the plan's seeded injector is installed as the
    ``fault_hook`` of the network, the token issuer, and the server, and
    the driver additionally simulates client crash–restore (each client is
    checkpointed after every sync; a crashed client is rebuilt from its
    latest durable checkpoint) and maintenance deferral (an epoch whose
    end falls inside a server outage skips maintenance — the batch job
    holds the mix's released deliveries and replays them at the catch-up
    cycle, so nothing buffered during the outage is ever counted as lost).

    ``durable_dir`` turns on write-ahead journaling: every accepted
    mutation is WAL-logged under ``<durable_dir>/primary`` (one lane per
    shard) and a snapshot is taken after maintenance every
    ``snapshot_every`` epochs — a crashed run is recoverable with
    ``repro recover``.  ``replicate`` additionally runs a warm-standby
    twin fed by log shipping at each epoch boundary; a
    :class:`~repro.faults.plan.PrimaryCrash` in the fault plan then
    kills the primary (torn WAL tail and all) and promotes the replica
    at the next epoch start.  Both knobs default off and, like
    ``n_shards``, never change any report the driver emits
    (see docs/DURABILITY.md).

    ``queue_depth`` bounds intake behind a
    :class:`~repro.ingest.BoundedIntakeQueue`: arrivals beyond the bound
    are deterministically shed *before* journaling (counted under
    ``rsp.ingest.shed``), so unlike every other knob it *can* change
    reports under overload — it defaults off and exists for the
    backpressure scenarios in docs/SCALING.md.

    ``serve_queries`` drives that many Zipf-drawn read-path queries
    (:mod:`repro.serve.loadgen`) through ``server.serving`` after every
    completed maintenance cycle, folding the rendered responses into
    ``outcome.serve_digest``.  It defaults off so query-free runs never
    construct a serving layer (their telemetry exports stay bit-stable);
    when on, the digest is deployment-invariant like every report.

    ``reshard_schedule`` maps 1-based epoch index → the
    :class:`~repro.reshard.ops.ReshardOp` list to apply at that epoch's
    start (build one with :func:`repro.reshard.parse_schedule`);
    ``autoscale`` installs a telemetry-driven
    :class:`~repro.reshard.autoscale.Autoscaler` evaluated after every
    completed maintenance cycle.  Both are — like every other deployment
    knob — contractually invisible in the reports, summaries, serve
    digest, and AGGREGATE telemetry (``tests/scale/test_golden_digest.py``).
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    if serve_queries < 0:
        raise ValueError("serve_queries must be >= 0")
    config = config or PipelineConfig()
    horizon = config.horizon_days * DAY
    epoch_length = horizon / n_epochs

    if classifier is None:
        classifier = train_classifier(
            town,
            result,
            horizon,
            config.classifier,
            seed=config.seed,
            use_wearables=config.use_wearables,
        )

    if n_shards < 1:
        raise ValueError("need at least one shard")

    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    autoscaler = Autoscaler(autoscale) if autoscale is not None else None

    def intake(target, deliveries, when: float | None) -> None:
        # One seam for both intake sites: optional bounded-queue admission
        # (shed-before-journal), then the server's batch intake.  The
        # target is passed per call because failover rebinds ``server``.
        if intake_queue is not None:
            intake_queue.offer_all(deliveries)
            deliveries = intake_queue.drain()
        target.receive_all(deliveries, now=when)

    def make_server() -> RSPServer:
        return RSPServer(
            catalog=town.entities,
            quota_per_day=config.quota_per_day,
            key_seed=config.seed,
            key_bits=config.key_bits,
            n_shards=n_shards,
        )

    server = make_server()
    network: AnonymityNetwork = batching_network(
        batch_interval=config.batch_interval, seed=config.seed
    )
    # One shared sink for the whole deployment: the server (and its
    # issuer), the mix, the injector, and every client record into the
    # same registry, so the epoch reports below are pure derived views.
    telemetry = Telemetry()
    intake_queue = (
        BoundedIntakeQueue(queue_depth, telemetry=telemetry)
        if queue_depth is not None
        else None
    )
    server.attach_telemetry(telemetry)
    network.telemetry = telemetry
    if injector is not None:
        injector.telemetry = telemetry
        network.fault_hook = injector
        server.fault_hook = injector
        server.issuer.fault_hook = injector

    journal: DurableJournal | None = None
    pair: ReplicatedRSPServer | None = None
    if durable_dir is not None:
        base = Path(durable_dir)
        journal = DurableJournal(
            base / "primary",
            n_lanes=server.router.n_shards,
            lane_of=server.router.shard_of,
            telemetry=telemetry,
        )
        attach_journal(server, journal)
        if replicate:
            # The replica is an exact twin (same catalog, same key seed,
            # so the primary's tokens verify after failover), fed only by
            # log shipping — it emits no telemetry until promoted.
            pair = ReplicatedRSPServer(
                server,
                make_server(),
                journal,
                ReplicationChannel(fault_hook=injector),
                telemetry=telemetry,
                durable_root=base,
            )
    elif replicate:
        raise ValueError("replicate=True requires durable_dir")

    users = town.users if max_users is None else town.users[:max_users]
    # One directory for the deployment: every install, restored ones too,
    # resolves against the same phone map and index and shares the
    # memoised choice sets.
    directory = CatalogDirectory(town.entities)
    clients: dict[str, RSPClient] = {
        user.user_id: RSPClient(
            device_id=user.user_id,
            catalog=directory,
            classifier=classifier,
            seed=config.seed * 100_003 + index,
            upload_config=config.upload,
            retransmit=config.retransmit,
        )
        for index, user in enumerate(users)
    }
    for client in clients.values():
        client.attach_telemetry(telemetry)
    # Each device's place in its own sensor stream: every epoch generates
    # only the samples that are new since the last one.
    carries = trace_carries(result, clients)
    # Durable state as of the last completed sync (install-time initially);
    # a crash rolls the client back to exactly this.  Only a fault plan
    # crashes clients, so only then are checkpoints taken.
    checkpoints: dict[str, dict] = {}
    if injector is not None:
        checkpoints = {user_id: client.checkpoint() for user_id, client in clients.items()}

    outcome = EpochsOutcome(
        server=server,
        clients=clients,
        injector=injector,
        telemetry=telemetry,
        replication=pair,
    )
    serve_source: SyntheticQueries | None = None
    serve_hash = None
    if serve_queries:
        serve_source = SyntheticQueries(
            town.entities, QueryWorkload(seed=config.seed), grid=town.grid
        )
        serve_hash = hashlib.sha256()
    records_before = 0
    rejected_before = 0
    dropped_before = 0
    duplicates_before = 0
    retransmissions_before = 0
    #: Deliveries already released by the mix while the upload endpoint was
    #: down.  The deferred batch job holds them here and replays them at
    #: the catch-up cycle with ``now=ingest_time`` — they were buffered,
    #: not lost, so the outage check must use the catch-up time, not the
    #: (in-outage) arrival times stamped when the mix flushed.
    held_backlog: list = []
    for epoch in range(1, n_epochs + 1):
        start_time = (epoch - 1) * epoch_length
        end_time = epoch * epoch_length

        if pair is not None and injector is not None and not pair.promoted:
            for crash in injector.primary_crashes_in(start_time, end_time):
                # Failover at the epoch boundary: the previous epoch's
                # shipment already carried every accepted mutation, so
                # the promoted replica starts byte-identical to where
                # the primary ended — in-flight envelopes land on it
                # via the mix and client retransmission.
                injector.note_primary_crash()
                server = pair.fail_over(torn_bytes=crash.torn_bytes)
                server.fault_hook = injector
                server.issuer.fault_hook = injector
                journal = server.journal
                outcome.server = server
                break

        if reshard_schedule is not None:
            # Scheduled topology changes apply at the epoch boundary —
            # after any failover (they must land on the live endpoint),
            # before any intake, so every envelope of the epoch routes
            # under the new table.
            for op in reshard_schedule.get(epoch, ()):
                perform(server, op)
                outcome.reshard_ops.append((epoch, op))

        crash_restores = 0
        if injector is not None:
            for crash in injector.crashes_in(start_time, end_time):
                for user in users:
                    if not crash.affects(user.user_id):
                        continue
                    injector.note_crash()
                    crash_restores += 1
                    restored = RSPClient.restore(
                        checkpoints[user.user_id],
                        catalog=directory,
                        classifier=classifier,
                        upload_config=config.upload,
                        retransmit=config.retransmit,
                    )
                    restored.attach_telemetry(telemetry)
                    # The restored install rebuilds its stays from a full trace.
                    carries[user.user_id] = carries[user.user_id].rewound()
                    clients[user.user_id] = restored
                    outcome.clients[user.user_id] = restored

        for review in result.reviews:
            if start_time <= review.time < end_time:
                server.post_review(
                    review.user_id, review.entity_id, review.rating, review.time
                )

        for user in users:
            client = clients[user.user_id]
            skew = injector.skew_for(user.user_id) if injector is not None else 0.0
            local_now = end_time + skew
            trace = generate_trace(
                user.user_id,
                town,
                result,
                end_time,
                duty_cycled_policy(),
                seed=config.seed,
                carry=carries[user.user_id],
            )
            emotion = (
                valence_feature(user.user_id, result, end_time, config.seed)
                if config.use_wearables
                else None
            )
            client.observe_trace(trace, now=local_now, emotion=emotion)
            client.sync(network, server.issuer, now=local_now)
            if injector is not None:
                checkpoints[user.user_id] = client.checkpoint()

        ingest_time = end_time + 2 * DAY
        server_deferred = injector is not None and injector.server_down_at(ingest_time)
        maintenance: MaintenanceReport | None = None
        if server_deferred:
            # The batch job waits for the endpoint; drain the mix's
            # released batches into the driver-held backlog so the
            # catch-up cycle can replay them without the outage check
            # mistaking buffered deliveries for in-outage arrivals.
            held_backlog.extend(network.deliveries_until(ingest_time))
        else:
            if held_backlog:
                intake(server, held_backlog, ingest_time)
                held_backlog = []
            # ``when=None`` on purpose: outage checks for freshly released
            # deliveries run against each arrival time, as before.
            intake(server, network.deliveries_until(ingest_time), None)
            maintenance = server.run_maintenance(now=ingest_time)
            if autoscaler is not None:
                # Evaluate on the gauges the cycle just set; the op (if
                # any) lands before this epoch's shipment, so the replica
                # applies it at the same point in the mutation stream.
                applied = autoscaler.evaluate(server)
                if applied is not None:
                    outcome.reshard_ops.append((epoch, applied))
            if serve_source is not None:
                # Fresh summaries just landed; serve the epoch's reads.
                for serve_query in serve_source.batch(serve_queries):
                    serve_hash.update(server.query(serve_query).render().encode())
                    serve_hash.update(b"\n")
            if pair is not None and not pair.promoted:
                pair.ship(now=ingest_time)
            if journal is not None and epoch % snapshot_every == 0:
                journal.take_snapshot(server)

        telemetry.span("epoch", start_time, end_time, epoch=epoch)
        # The robustness fields are derived views of the shared telemetry
        # registry — tests/telemetry/test_counter_consistency.py pins them
        # to the legacy server/injector counters.
        rejected_now = telemetry.total("rsp.envelopes.rejected")
        dropped_now = telemetry.total("mix.dropped") + telemetry.total(
            "rsp.envelopes.outage_dropped"
        )
        duplicates_now = telemetry.total("rsp.envelopes.duplicate")
        retransmissions_now = telemetry.total("client.retransmissions")
        outcome.reports.append(
            EpochReport(
                epoch=epoch,
                end_time=end_time,
                new_records=server.n_records - records_before,
                total_records=server.n_records,
                total_histories=server.n_histories,
                n_opinions=server.n_opinions,
                envelopes_deferred=sum(c.n_pending for c in clients.values()),
                maintenance=maintenance,
                rejected_envelopes=rejected_now - rejected_before,
                dropped_messages=dropped_now - dropped_before,
                duplicates_suppressed=duplicates_now - duplicates_before,
                retransmissions=retransmissions_now - retransmissions_before,
                crash_restores=crash_restores,
                server_deferred=server_deferred,
            )
        )
        records_before = server.n_records
        rejected_before = rejected_now
        dropped_before = dropped_now
        duplicates_before = duplicates_now
        retransmissions_before = retransmissions_now
    if serve_hash is not None:
        outcome.serve_digest = serve_hash.hexdigest()
    return outcome
