"""The headline crash matrix: kill the RSP at every WAL frame boundary.

For both deployments (``one_shard``, 4 shards) and both channel modes (clean,
chaotic with re-deliveries), the workload runs reviews → batch 1 →
maintenance → snapshot → batch 2, then the durable directory is cloned
and the post-snapshot segment truncated at every frame boundary *and*
every mid-frame byte — the full space of prefixes a crash can leave.

Each crash point must satisfy the recovery invariant end to end:

    recover(fresh, dir) + redeliver(batch 2) ≡ never crashed

compared on both the logical store state (``comparable_state``) and the
byte-identity unit (maintenance report + summaries).  Re-delivering the
*entire* second batch is the point: mutations the truncation lost were
never acknowledged, so the channel re-sends them and they are accepted
anew; mutations that survived are suppressed by the recovered nonce
table.  Either way the end state is the same.
"""

import pytest

from repro.durability.journal import DurableJournal, attach_journal, list_segments
from repro.durability.recovery import recover_server
from repro.durability.wal import read_wal
from repro.util.clock import DAY

from tests.durability.conftest import (
    comparable_state,
    copy_durable_dir,
    final_digest,
    make_server,
    synth_deliveries,
)

BATCH_1 = (0, 40)
BATCH_2 = (40, 64)
FINAL_NOW = 2 * DAY


def run_workload(catalog, directory, n_shards, duplicate_every):
    """The canonical crash-matrix workload; returns (server, batch2)."""
    server = make_server(catalog, n_shards)
    journal = DurableJournal(
        directory,
        n_lanes=n_shards,
        lane_of=server.router.shard_of if n_shards > 1 else None,
    )
    attach_journal(server, journal)
    # Reviews go only *before* the snapshot: a review carries no nonce, so
    # re-delivering one would double it — the matrix keeps every review
    # inside the snapshot's coverage and crashes only the batch-2 tail.
    ids = sorted(entity.entity_id for entity in catalog)
    for k in range(3):
        server.post_review(f"reviewer-{k}", ids[k], 2 + k, 40.0 * (k + 1))
    server.receive_all(synth_deliveries(catalog, *BATCH_1, duplicate_every))
    server.run_maintenance(now=DAY)
    journal.take_snapshot(server)
    batch2 = synth_deliveries(catalog, *BATCH_2, duplicate_every)
    server.receive_all(batch2)
    journal.close()
    return server, batch2


def crash_points(directory):
    """Every interesting cut of each lane's post-snapshot segment.

    Frame boundaries (``offsets`` + the clean end) model a crash between
    appends; mid-frame bytes model a torn append.  Together they cover
    losing 0..all of the batch-2 records in every possible way a
    truncation can.
    """
    points = []
    for _lane, segments in sorted(list_segments(directory).items()):
        _start, path = segments[-1]
        result = read_wal(path)
        assert not result.torn
        boundaries = list(result.offsets) + [result.valid_bytes]
        points.extend((path.name, cut) for cut in boundaries)
        points.extend(
            (path.name, (a + b) // 2) for a, b in zip(boundaries, boundaries[1:])
        )
    return points


@pytest.mark.parametrize("duplicate_every", [0, 7], ids=["clean", "chaos"])
@pytest.mark.parametrize("n_shards", [1, 4], ids=["one_shard", "sharded"])
def test_crash_at_every_frame_boundary_recovers_identically(
    catalog, tmp_path, n_shards, duplicate_every
):
    baseline_dir = tmp_path / "baseline"
    baseline, batch2 = run_workload(catalog, baseline_dir, n_shards, duplicate_every)
    expected_state = comparable_state(baseline)
    expected_digest = final_digest(baseline, now=FINAL_NOW)

    points = crash_points(baseline_dir)
    n_accepted_batch2 = BATCH_2[1] - BATCH_2[0]
    # Every accepted batch-2 record contributes one boundary and one
    # mid-frame point; duplicates are suppressed pre-WAL so chaos mode
    # changes the delivery stream, never the journaled frame count.
    assert len(points) == 2 * n_accepted_batch2 + n_shards

    for index, (lane_name, cut) in enumerate(points):
        work = copy_durable_dir(baseline_dir, tmp_path / f"crash-{index:03d}")
        lane_path = work / lane_name
        lane_path.write_bytes(lane_path.read_bytes()[:cut])

        recovered = make_server(catalog, n_shards)
        report = recover_server(recovered, work)
        assert report.snapshot_seq > 0, (lane_name, cut)
        recovered.receive_all(batch2)
        assert comparable_state(recovered) == expected_state, (lane_name, cut)
        assert final_digest(recovered, now=FINAL_NOW) == expected_digest, (
            lane_name,
            cut,
        )


@pytest.mark.parametrize("n_shards", [1, 4], ids=["one_shard", "sharded"])
def test_cold_replay_without_any_snapshot(catalog, tmp_path, n_shards):
    """A crash before the first snapshot recovers from the WAL alone."""
    directory = tmp_path / "durable"
    server = make_server(catalog, n_shards)
    journal = DurableJournal(
        directory,
        n_lanes=n_shards,
        lane_of=server.router.shard_of if n_shards > 1 else None,
    )
    attach_journal(server, journal)
    server.receive_all(synth_deliveries(catalog, *BATCH_1))
    server.receive_all(synth_deliveries(catalog, *BATCH_2))
    journal.close()
    expected_state = comparable_state(server)

    recovered = make_server(catalog, n_shards)
    report = recover_server(recovered, directory)
    assert report.snapshot_seq == 0
    assert report.n_replayed == BATCH_2[1]
    assert not report.torn_tail
    assert comparable_state(recovered) == expected_state
