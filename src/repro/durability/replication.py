"""Primary/replica replication: deterministic log shipping + failover.

The replication unit is the primary's WAL: :class:`ReplicatedRSPServer`
ships batches of journaled mutations over a fault-injectable channel,
and the replica applies them with the *same* function crash recovery
uses (:func:`repro.durability.recovery.apply_mutation`: the primary's own
store write, acceptance commit and quota charge) — a replica is, by
construction, a continuously recovering copy of the primary.  The
replica acknowledges by sequence offset; ``lag`` (mutations journaled
but not yet acked) is the bounded staleness counter the chaos tests
watch grow through a replica outage and drain after it.

Determinism: shipping draws no randomness and applies mutations in
global ``seq`` order, so the replica's stores are byte-identical to the
primary's at every acked offset — which is what makes failover exact.
When :mod:`repro.faults` kills the primary (a :class:`PrimaryCrash` in
the plan), :meth:`fail_over` tears the primary's WAL tail like a real
mid-append death, promotes the replica (engine rebuild + baseline
snapshot + fresh journal), and the epoch driver points clients at it;
accepted-but-unshipped envelopes are re-sent by the existing client
retransmission machinery and deduplicated by the replicated nonce table.
"""

from __future__ import annotations

from pathlib import Path

from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.recovery import apply_mutation, finalize_recovery
from repro.durability.snapshot import render_state, write_snapshot
from repro.telemetry import NULL, Telemetry
from repro.telemetry.catalog import REPLICA_BATCH_BUCKETS


class ReplicationChannel:
    """The primary→replica shipping link, fault-injectable like any other.

    Mirrors the ``fault_hook`` duck-typing used everywhere: the channel
    holds an optional hook with ``replica_down(now) -> bool`` and asks it
    before each shipment.  A down channel defers the whole batch — log
    shipping is all-or-nothing per batch, there are no partial applies.
    """

    def __init__(self, fault_hook=None) -> None:
        self.fault_hook = fault_hook

    def available(self, now: float) -> bool:
        return self.fault_hook is None or not self.fault_hook.replica_down(now)


class ReplicatedRSPServer:
    """A primary/replica pair sharing one WAL via log shipping.

    ``primary`` and ``replica`` must be freshly constructed twins (same
    catalog, same ``key_seed`` — so tokens minted against the primary's
    public key verify on the replica after failover).  The pair turns on
    the journal's outbox retention and ships it at the driver's batch
    points (the epoch boundary, after intake and maintenance).
    """

    def __init__(
        self,
        primary,
        replica,
        journal: DurableJournal,
        channel: ReplicationChannel,
        telemetry: Telemetry = NULL,
        durable_root: Path | None = None,
    ) -> None:
        self.primary = primary
        self.replica = replica
        self.journal = journal
        self.channel = channel
        self.telemetry = telemetry
        #: Where the promoted replica's own journal lives; defaults to a
        #: sibling of the primary's directory.
        self.durable_root = (
            Path(durable_root) if durable_root is not None else journal.directory.parent
        )
        journal.keep_outbox = True
        #: Highest seq the replica has applied and acknowledged.
        self.acked_seq = journal.next_seq - 1
        self.promoted = False
        self.deferred_batches = 0
        self.max_lag = 0

    @property
    def lag(self) -> int:
        """Mutations journaled on the primary but not yet replica-acked."""
        return self.journal.next_seq - 1 - self.acked_seq

    def ship(self, now: float) -> int:
        """Ship the outbox to the replica; returns mutations applied.

        A down channel defers the entire batch (and grows ``lag``); the
        next successful shipment drains everything pending, so an outage
        window costs staleness, never loss.
        """
        if self.promoted:
            return 0
        lag = self.lag
        self.max_lag = max(self.max_lag, lag)
        if not self.channel.available(now):
            self.deferred_batches += 1
            self.telemetry.set_gauge("replica.lag", lag)
            return 0
        batch = [m for m in self.journal.outbox if m["seq"] > self.acked_seq]
        for mutation in batch:
            apply_mutation(self.replica, mutation)
        if batch:
            self.acked_seq = batch[-1]["seq"]
            self.telemetry.inc("replica.shipped", len(batch))
            self.telemetry.observe(
                "replica.batch", len(batch), buckets=REPLICA_BATCH_BUCKETS
            )
        self.journal.outbox.clear()
        self.telemetry.set_gauge("replica.lag", self.lag)
        return len(batch)

    def promote(self):
        """Make the replica the service endpoint; returns it.

        Rebuilds the engine's derived state (shipping applies mutations
        store-directly, like recovery), attaches the shared telemetry,
        gives the promoted server its own journal under
        ``durable_root/promoted``, and seeds that directory with a baseline
        snapshot so the new primary is itself recoverable from scratch —
        topology included, since the snapshot carries the reshard history
        the replica applied from shipped records.

        The baseline covers every seq the primary's journal issued and is
        written before the new journal opens the directory, so the
        journal resumes after it.  Seqs therefore stay unique across the
        failover: a later reshard can never reuse a seq the inherited
        history holds, which recovery's seq guard would skip.
        """
        if self.promoted:
            return self.replica
        self.promoted = True
        replica = self.replica
        finalize_recovery(replica)
        replica.attach_telemetry(self.telemetry)
        directory = self.durable_root / "promoted"
        covered = self.journal.next_seq - 1
        write_snapshot(directory, covered, render_state(replica, covered))
        journal = DurableJournal(
            directory,
            n_lanes=replica.router.n_shards,
            lane_of=replica.router.shard_of,
            telemetry=self.telemetry,
            sync_policy=self.journal.sync_policy,
        )
        attach_journal(replica, journal)
        self.telemetry.inc("replica.promotions")
        return replica

    def fail_over(self, torn_bytes: int = 0):
        """Kill the primary mid-append and promote the replica.

        ``torn_bytes`` of garbage land on the primary's WAL tail — the
        same damage :func:`repro.durability.recovery.recover_server`
        absorbs — making the dead primary's directory itself a valid
        recovery source for post-mortem verification.
        """
        self.journal.crash(torn_bytes)
        return self.promote()
