"""Backpressure invariants: every envelope acked-and-journaled XOR shed.

The bounded intake queue's contract (:mod:`repro.ingest.queue`) is that
under any overload, each offered envelope meets exactly one of two
fates, and both are accounted:

* **admitted** — drained to the server, classified, and (if accepted)
  journaled before its acceptance commit;
* **shed** — dropped at the full queue, counted under
  ``rsp.ingest.shed{reason=capacity}``, and *never* journaled.

No orphan WAL frames (a journaled record that was never acked), no
silent drops (an envelope missing from both ledgers), and a crash while
shedding is in progress recovers to exactly the state an uninterrupted
run reaches over the admitted prefix.
"""

import pytest

from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.recovery import read_mutations, recover_server
from repro.ingest import BoundedIntakeQueue, SyntheticTraffic, WorkloadConfig, ingest_all
from repro.service.server import RSPServer
from repro.telemetry import Telemetry

WORKLOAD = WorkloadConfig(
    n_users=500,
    n_entities=30,
    opinion_fraction=0.3,
    duplicate_fraction=0.05,
    stale_fraction=0.1,
    invalid_fraction=0.05,
    seed=23,
)


# ------------------------------------------------------------- queue unit


class TestQueueUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedIntakeQueue(0)

    def test_admission_is_prefix_greedy(self):
        queue = BoundedIntakeQueue(3)
        assert queue.offer_all(["a", "b", "c", "d", "e"]) == 3
        assert queue.admitted == 3
        assert queue.shed == 2
        assert queue.drain() == ["a", "b", "c"]

    def test_fifo_across_offer_bursts(self):
        queue = BoundedIntakeQueue(10)
        queue.offer_all(["a", "b"])
        queue.offer_all(["c"])
        assert queue.drain(2) == ["a", "b"]
        queue.offer("d")
        assert queue.drain() == ["c", "d"]

    def test_drain_limit_and_depth(self):
        queue = BoundedIntakeQueue(5)
        queue.offer_all(list("abcde"))
        assert queue.depth == 5
        assert queue.high_watermark == 5
        assert queue.drain(2) == ["a", "b"]
        assert queue.depth == 3
        # Freed room readmits.
        assert queue.offer_all(["f", "g", "h"]) == 2
        assert queue.shed == 1

    def test_shedding_is_deterministic(self):
        fates = []
        for _ in range(2):
            queue = BoundedIntakeQueue(4)
            kept = []
            for burst in (list("abcdef"), list("ghi")):
                queue.offer_all(burst)
                kept.extend(queue.drain(3))
            fates.append((kept, queue.admitted, queue.shed))
        assert fates[0] == fates[1]

    def test_telemetry_counters(self):
        telemetry = Telemetry()
        queue = BoundedIntakeQueue(2, telemetry=telemetry)
        queue.offer_all(["a", "b", "c"])
        queue.drain()
        assert telemetry.total("rsp.ingest.admitted") == 2
        assert telemetry.total("rsp.ingest.shed") == 1
        assert "rsp.ingest.drain" in telemetry.metrics.export_json()

    def test_empty_drain_creates_no_instrument(self):
        telemetry = Telemetry()
        BoundedIntakeQueue(2, telemetry=telemetry).drain()
        assert "rsp.ingest.drain" not in telemetry.metrics.export_json()

    def test_empty_drains_leave_the_export_byte_identical(self):
        # An idle deployment drains its (empty) queue every tick; those
        # ticks must not touch the queue_depth gauge (its write version
        # is part of the export, so idle churn would make two otherwise
        # identical runs export different telemetry).
        telemetry = Telemetry()
        queue = BoundedIntakeQueue(4, telemetry=telemetry)
        queue.offer_all(["a", "b"])
        queue.drain()
        exported = telemetry.export_json()
        assert "rsp.ingest.queue_depth" in exported
        for _ in range(3):
            queue.drain()
        assert telemetry.export_json() == exported


# --------------------------------------------------------- end-to-end XOR


def overloaded_run(root, ticks=6, crash_after=None):
    """Drive bursts through queue → ingest → WAL; optionally crash."""
    traffic = SyntheticTraffic(WORKLOAD)
    telemetry = Telemetry()
    server = RSPServer(traffic.catalog, require_tokens=False)
    server.attach_telemetry(telemetry)
    journal = DurableJournal(root / "primary", telemetry=telemetry)
    attach_journal(server, journal)
    queue = BoundedIntakeQueue(150, telemetry=telemetry)
    offered_nonces = []
    shed_count_before = 0
    shed_nonces = []
    for tick in range(ticks):
        now = 100.0 * tick
        burst = traffic.batch(250, now)
        offered_nonces.extend(d.payload.nonce for d in burst)
        admitted = queue.offer_all(burst)
        # offer_all admits the prefix, so the shed suffix is identifiable.
        shed_nonces.extend(d.payload.nonce for d in burst[admitted:])
        ingest_all(server, queue.drain(), now=now)
        if crash_after is not None and tick == crash_after:
            journal.crash(torn_bytes=7)
            return server, queue, traffic, shed_nonces, tick + 1
    return server, queue, traffic, shed_nonces, ticks


class TestExactlyOneFate:
    def test_no_orphans_and_no_silent_drops(self, tmp_path):
        server, queue, traffic, shed_nonces, _ = overloaded_run(tmp_path)
        assert queue.shed > 0, "overload never engaged — test is vacuous"
        # Ledger 1: offered == admitted + shed.
        assert traffic.generated == queue.admitted + queue.shed
        # Ledger 2: everything drained was classified, exactly once.
        drained = queue.admitted - queue.depth
        assert drained == (
            server.accepted_envelopes
            + server.rejected_envelopes
            + server.duplicates_suppressed
            + server.dropped_by_outage
        )
        # Ledger 3: the WAL holds one frame per acked envelope — no
        # orphan frames for shed or rejected envelopes.
        mutations, torn = read_mutations(tmp_path / "primary", after_seq=0)
        assert not torn
        assert len(mutations) == server.accepted_envelopes
        # And no shed envelope's nonce ever reached the journal.
        journaled_nonces = {m.get("nonce") for m in mutations}
        for nonce in shed_nonces:
            assert nonce.hex() not in journaled_nonces

    def test_shed_is_before_journal_even_under_burst(self, tmp_path):
        server, queue, *_ = overloaded_run(tmp_path)
        telemetry = server.telemetry
        assert telemetry.total("rsp.ingest.admitted") == queue.admitted
        assert telemetry.total("rsp.ingest.shed") == queue.shed
        # Counter three-way consistency on the intake side.
        assert telemetry.total("rsp.envelopes.accepted") == server.accepted_envelopes
        assert telemetry.total("rsp.envelopes.rejected") == server.rejected_envelopes
        assert telemetry.total("rsp.envelopes.duplicate") == server.duplicates_suppressed


class TestCrashDuringShed:
    def test_recovery_matches_uninterrupted_run(self, tmp_path):
        crashed_root = tmp_path / "crashed"
        twin_root = tmp_path / "twin"
        # Crash mid-overload, right after an overloaded tick.
        server_a, queue_a, traffic_a, _, ticks_done = overloaded_run(
            crashed_root, crash_after=2
        )
        assert queue_a.shed > 0
        # The twin runs the same prefix, uninterrupted.
        server_b, queue_b, *_ = overloaded_run(twin_root, ticks=ticks_done)
        assert queue_a.admitted == queue_b.admitted
        assert queue_a.shed == queue_b.shed
        # Recover a fresh server from the torn journal.
        recovered = RSPServer(traffic_a.catalog, require_tokens=False)
        report = recover_server(recovered, crashed_root / "primary")
        assert report.n_replayed > 0
        assert recovered.n_records == server_b.n_records
        assert recovered.n_opinions == server_b.n_opinions
        recovered.run_maintenance(now=10_000.0)
        server_b.run_maintenance(now=10_000.0)
        assert recovered.all_summaries() == server_b.all_summaries()

    def test_redelivery_after_recovery_is_idempotent(self, tmp_path):
        server_a, queue_a, traffic_a, _, _ = overloaded_run(
            tmp_path, crash_after=1
        )
        recovered = RSPServer(traffic_a.catalog, require_tokens=False)
        recover_server(recovered, tmp_path / "primary")
        # Replay the same traffic prefix the crashed run processed: every
        # envelope the WAL saw must now dedup (burned nonces were
        # recovered), so acceptance does not double-count.
        accepted_before = recovered.n_records + recovered.n_opinions
        replay = SyntheticTraffic(WORKLOAD)
        queue = BoundedIntakeQueue(150)
        for tick in range(2):
            queue.offer_all(replay.batch(250, 100.0 * tick))
            ingest_all(recovered, queue.drain(), now=100.0 * tick)
        assert recovered.n_records + recovered.n_opinions == accepted_before
        assert recovered.duplicates_suppressed > 0
