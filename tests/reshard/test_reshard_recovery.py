"""Crash safety of live resharding: the migration-step crash matrix.

The workload journals batch 1, snapshots, accepts half of batch 2,
**splits shard 0 live**, then accepts the rest.  The matrix then crashes
the deployment at *every* global WAL position around the reshard record
— every record boundary and every mid-frame byte, modelled faithfully:
segments created after the crash point are removed (the post-split lanes
did not exist yet).

Every crash point must satisfy the recovery invariant end to end:

    recover(fresh, dir) + redeliver(batch 2) ≡ never crashed

* a crash *before* the reshard record lost the operation entirely — the
  recovered deployment is the static one, and by deployment invariance
  its maintenance digest still matches the resharded baseline's;
* a crash *at or after* the record replays the migration exactly once
  into the post-split topology, wherever the migration itself died
  (journal-before-migrate: the record is durable before any state moves).
"""

import pytest

from repro.durability.journal import DurableJournal, attach_journal, list_segments
from repro.durability.recovery import recover_server
from repro.durability.replication import ReplicatedRSPServer, ReplicationChannel
from repro.durability.wal import read_wal
from repro.durability.snapshot import list_snapshots
from repro.reshard import ReshardOp, perform
from repro.util.clock import DAY

from tests.durability.conftest import (
    comparable_state,
    copy_durable_dir,
    final_digest,
    make_server,
    synth_deliveries,
)

N_SHARDS = 2
BATCH_1 = (0, 40)
BATCH_2A = (40, 52)
BATCH_2B = (52, 64)
FINAL_NOW = 2 * DAY


def run_workload(catalog, directory, duplicate_every=0):
    """batch 1 → snapshot → half of batch 2 → live split → the rest."""
    server = make_server(catalog, N_SHARDS)
    journal = DurableJournal(
        directory, n_lanes=N_SHARDS, lane_of=server.router.shard_of
    )
    attach_journal(server, journal)
    ids = sorted(entity.entity_id for entity in catalog)
    for k in range(3):
        server.post_review(f"reviewer-{k}", ids[k], 2 + k, 40.0 * (k + 1))
    server.receive_all(synth_deliveries(catalog, *BATCH_1, duplicate_every))
    server.run_maintenance(now=DAY)
    journal.take_snapshot(server)
    snapshot_seq = journal.next_seq - 1
    batch2 = synth_deliveries(catalog, *BATCH_2A, duplicate_every)
    server.receive_all(batch2)
    perform(server, ReshardOp.split(0))
    reshard_seq = server.reshard_history[-1]["seq"]
    tail = synth_deliveries(catalog, *BATCH_2B, duplicate_every)
    server.receive_all(tail)
    batch2.extend(tail)
    journal.close()
    return server, batch2, snapshot_seq, reshard_seq


def static_twin(catalog, batch2, duplicate_every=0):
    """The same deliveries, never journaled, never resharded."""
    server = make_server(catalog, N_SHARDS)
    ids = sorted(entity.entity_id for entity in catalog)
    for k in range(3):
        server.post_review(f"reviewer-{k}", ids[k], 2 + k, 40.0 * (k + 1))
    server.receive_all(synth_deliveries(catalog, *BATCH_1, duplicate_every))
    server.run_maintenance(now=DAY)
    server.receive_all(batch2)
    return server


def crash_clone(baseline_dir, work, cut_seq, midframe):
    """A faithful image of the durable dir had the process died at
    global WAL position ``cut_seq`` (plus a torn frame of the next
    record when ``midframe``)."""
    copy_durable_dir(baseline_dir, work)
    for _lane, segments in sorted(list_segments(work).items()):
        for start_seq, path in segments:
            if start_seq > cut_seq:
                # This segment was created (lane rotation / remap) after
                # the crash point: the file did not exist yet.
                path.unlink()
                continue
            result = read_wal(path)
            kept = sum(1 for record in result.records if record["seq"] <= cut_seq)
            if kept == len(result.records):
                continue
            boundaries = list(result.offsets) + [result.valid_bytes]
            cut = boundaries[kept]
            if midframe and result.records[kept]["seq"] == cut_seq + 1:
                cut = (boundaries[kept] + boundaries[kept + 1]) // 2
            path.write_bytes(path.read_bytes()[:cut])
    return work


def wal_seqs(directory):
    seqs = []
    for segments in list_segments(directory).values():
        for _start, path in segments:
            seqs.extend(record["seq"] for record in read_wal(path).records)
    return sorted(seqs)


@pytest.mark.parametrize("duplicate_every", [0, 7], ids=["clean", "chaos"])
def test_crash_at_every_migration_step_recovers_exactly_once(
    catalog, tmp_path, duplicate_every
):
    baseline_dir = tmp_path / "baseline"
    baseline, batch2, snapshot_seq, reshard_seq = run_workload(
        catalog, baseline_dir, duplicate_every
    )
    assert snapshot_seq < reshard_seq <= max(wal_seqs(baseline_dir))
    resharded_state = comparable_state(baseline)
    expected_digest = final_digest(baseline, now=FINAL_NOW)

    static = static_twin(catalog, batch2, duplicate_every)
    static_state = comparable_state(static)
    # Deployment invariance makes the two baselines agree on the
    # maintenance digest — which is why every crash cell, pre- or
    # post-record, is held to the same expected digest.
    assert final_digest(static, now=FINAL_NOW) == expected_digest

    max_seq = max(wal_seqs(baseline_dir))
    cells = [(seq, False) for seq in range(snapshot_seq, max_seq + 1)]
    cells += [(seq, True) for seq in range(snapshot_seq, max_seq)]
    for index, (cut_seq, midframe) in enumerate(cells):
        work = crash_clone(
            baseline_dir, tmp_path / f"crash-{index:03d}", cut_seq, midframe
        )
        recovered = make_server(catalog, N_SHARDS)
        recover_server(recovered, work)
        survived = cut_seq >= reshard_seq
        assert (recovered.router.n_shards == N_SHARDS + 1) == survived, (
            cut_seq,
            midframe,
        )
        recovered.receive_all(batch2)
        expected_state = resharded_state if survived else static_state
        assert comparable_state(recovered) == expected_state, (cut_seq, midframe)
        assert final_digest(recovered, now=FINAL_NOW) == expected_digest, (
            cut_seq,
            midframe,
        )
        if survived:
            # Exactly-once: the replayed op is in the recovered history
            # once.
            assert [e["seq"] for e in recovered.reshard_history] == [reshard_seq]


def test_ledger_survives_wal_truncation_across_snapshots(catalog, tmp_path):
    """A snapshot *after* the split truncates the reshard record's
    segment; the snapshot carries the split and must rebuild the
    topology."""
    directory = tmp_path / "durable"
    server = make_server(catalog, N_SHARDS)
    journal = DurableJournal(
        directory, n_lanes=N_SHARDS, lane_of=server.router.shard_of
    )
    attach_journal(server, journal)
    server.receive_all(synth_deliveries(catalog, *BATCH_1))
    perform(server, ReshardOp.split(1))
    server.receive_all(synth_deliveries(catalog, *BATCH_2A))
    journal.take_snapshot(server)  # rotates + truncates covered segments
    server.receive_all(synth_deliveries(catalog, *BATCH_2B))
    journal.close()
    expected_state = comparable_state(server)
    expected_digest = final_digest(server, now=FINAL_NOW)
    # The reshard record's WAL frame is really gone.
    assert all(
        record["kind"] != "reshard"
        for lane in list_segments(directory).values()
        for _start, path in lane
        for record in read_wal(path).records
    )

    recovered = make_server(catalog, N_SHARDS)
    recover_server(recovered, directory)
    assert recovered.router.n_shards == N_SHARDS + 1
    assert comparable_state(recovered) == expected_state
    assert final_digest(recovered, now=FINAL_NOW) == expected_digest


@pytest.mark.parametrize(
    "split_first", [True, False], ids=["split-before-older", "split-after-older"]
)
def test_damaged_newest_snapshot_falls_back_across_a_split(
    catalog, tmp_path, split_first
):
    """Two retained snapshots, the newest damaged in its ``reshards``.

    Recovery falls back to the older snapshot.  When the split came
    before it, the split's WAL segment is truncated and the older
    snapshot alone carries the topology; when it came after, the
    retained WAL replays it.
    """
    directory = tmp_path / "durable"
    server = make_server(catalog, N_SHARDS)
    journal = DurableJournal(
        directory, n_lanes=N_SHARDS, lane_of=server.router.shard_of
    )
    attach_journal(server, journal)
    server.receive_all(synth_deliveries(catalog, *BATCH_1))
    if split_first:
        perform(server, ReshardOp.split(0))
    journal.take_snapshot(server)
    server.receive_all(synth_deliveries(catalog, *BATCH_2A))
    if not split_first:
        perform(server, ReshardOp.split(0))
    journal.take_snapshot(server)
    server.receive_all(synth_deliveries(catalog, *BATCH_2B))
    journal.close()
    reshard_seq = server.reshard_history[-1]["seq"]
    expected_state = comparable_state(server)
    expected_digest = final_digest(server, now=FINAL_NOW)

    (older_seq, _older), (_newest_seq, newest) = list_snapshots(directory)
    assert (reshard_seq <= older_seq) == split_first
    raw = newest.read_bytes()
    logged = b'"seq":%d,"shard":0}' % reshard_seq
    assert raw.count(logged) == 1
    newest.write_bytes(raw.replace(logged, b'"seq":%d,"shard":1}' % reshard_seq))

    recovered = make_server(catalog, N_SHARDS)
    report = recover_server(recovered, directory)
    assert report.snapshot_seq == older_seq
    assert recovered.router.n_shards == N_SHARDS + 1
    assert [e["seq"] for e in recovered.reshard_history] == [reshard_seq]
    assert comparable_state(recovered) == expected_state
    assert final_digest(recovered, now=FINAL_NOW) == expected_digest


def test_torn_crash_after_lanes_shrink_recovers(catalog, tmp_path):
    """A torn crash right after a merge shrank the lanes tears the new
    layout, never a lane the merge dropped.

    ``perform`` journals its record on lane 0 before remapping, so this
    drives :meth:`DurableJournal.remap_lanes` directly: the last write is
    on lane 3, then the lanes shrink to 2 before anything else appends.
    """
    directory = tmp_path / "durable"
    server = make_server(catalog, 4)
    journal = DurableJournal(directory, n_lanes=4, lane_of=server.router.shard_of)
    attach_journal(server, journal)
    server.receive_all(synth_deliveries(catalog, *BATCH_1))
    last_seq = journal.next_seq - 1
    assert any(
        record["seq"] == last_seq
        for _start, path in list_segments(directory)[3]
        for record in read_wal(path).records
    )
    expected_state = comparable_state(server)
    merged = server.router.merge(2, 3).merge(0, 1)
    journal.remap_lanes(merged.n_shards, merged.shard_of)
    journal.crash(torn_bytes=5)

    recovered = make_server(catalog, 4)
    report = recover_server(recovered, directory)
    assert report.torn_tail
    assert comparable_state(recovered) == expected_state


class TestReplicatedResharding:
    def make_pair(self, catalog, root):
        primary = make_server(catalog, N_SHARDS)
        replica = make_server(catalog, N_SHARDS)
        journal = DurableJournal(
            root / "primary", n_lanes=N_SHARDS, lane_of=primary.router.shard_of
        )
        attach_journal(primary, journal)
        return ReplicatedRSPServer(
            primary, replica, journal, ReplicationChannel(), durable_root=root
        )

    def test_shipped_reshard_moves_the_replicas_topology(self, catalog, tmp_path):
        pair = self.make_pair(catalog, tmp_path)
        pair.primary.receive_all(synth_deliveries(catalog, *BATCH_1))
        perform(pair.primary, ReshardOp.split(0))
        pair.primary.receive_all(synth_deliveries(catalog, *BATCH_2A))
        pair.ship(now=100.0)
        assert pair.lag == 0
        assert pair.replica.router == pair.primary.router
        assert comparable_state(pair.replica) == comparable_state(pair.primary)
        assert [e["seq"] for e in pair.replica.reshard_history] == [
            e["seq"] for e in pair.primary.reshard_history
        ]

    def test_failover_after_reshard_promotes_a_recoverable_server(
        self, catalog, tmp_path
    ):
        pair = self.make_pair(catalog, tmp_path)
        pair.primary.receive_all(synth_deliveries(catalog, *BATCH_1))
        perform(pair.primary, ReshardOp.split(0))
        pair.primary.receive_all(synth_deliveries(catalog, *BATCH_2A))
        pair.ship(now=100.0)
        promoted = pair.fail_over(torn_bytes=9)
        assert promoted.router.n_shards == N_SHARDS + 1
        expected_digest = final_digest(promoted, now=FINAL_NOW)
        # The promoted directory's baseline snapshot carries the split: a
        # later crash of the *new* primary recovers the split topology.
        recovered = make_server(catalog, N_SHARDS)
        recover_server(recovered, tmp_path / "promoted")
        assert recovered.router.n_shards == N_SHARDS + 1
        assert final_digest(recovered, now=FINAL_NOW) == expected_digest

    def test_a_reshard_on_the_promoted_server_survives_its_recovery(
        self, catalog, tmp_path
    ):
        """The promoted journal's seqs continue after the primary's, so a
        reshard on the promoted server never reuses the seq of one it
        inherited — recovery's seq guard would skip it."""
        pair = self.make_pair(catalog, tmp_path)
        pair.primary.receive_all(synth_deliveries(catalog, *BATCH_1))
        perform(pair.primary, ReshardOp.split(0))
        inherited_seq = pair.primary.reshard_history[-1]["seq"]
        pair.ship(now=100.0)
        promoted = pair.fail_over()
        # As many fresh records as the primary logged before its split,
        # then a second split: from seq 1, it would land on the inherited
        # seq.
        lo = BATCH_1[1]
        promoted.receive_all(synth_deliveries(catalog, lo, lo + inherited_seq - 1))
        perform(promoted, ReshardOp.split(1))
        seqs = [entry["seq"] for entry in promoted.reshard_history]
        assert len(set(seqs)) == 2 and seqs[1] > inherited_seq
        expected_state = comparable_state(promoted)
        promoted.journal.close()

        recovered = make_server(catalog, N_SHARDS)
        recover_server(recovered, tmp_path / "promoted")
        assert recovered.router.n_shards == N_SHARDS + 2
        assert recovered.router == promoted.router
        assert [e["seq"] for e in recovered.reshard_history] == seqs
        assert comparable_state(recovered) == expected_state
