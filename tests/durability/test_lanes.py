"""WAL lanes follow intake's routing: each upload lands in its shard's lane.

Intake routes every upload once and hands the journal that shard as the
lane.  These checks read the segments back and re-route every record
independently, so a lane that drifted from the router — before or after
a live reshard — fails here rather than only in the I/O layout.
"""

from repro.durability.journal import DurableJournal, attach_journal, list_segments
from repro.durability.wal import read_wal
from repro.reshard import ReshardOp, perform

from tests.durability.conftest import make_server, synth_deliveries

N_SHARDS = 4


def records_by_lane(directory):
    """``lane -> [record, ...]`` over every segment on disk."""
    return {
        lane: [record for _start, path in segments for record in read_wal(path).records]
        for lane, segments in list_segments(directory).items()
    }


def assert_routed(lanes, route_of):
    """Every upload sits in the lane ``route_of(seq)`` maps its key to."""
    uploads = 0
    for lane, records in lanes.items():
        for record in records:
            if record["kind"] in ("interaction", "opinion"):
                assert route_of(record["seq"])(record["history_id"]) == lane, record
                uploads += 1
            elif record["kind"] == "review":
                assert route_of(record["seq"])(record["entity_id"]) == lane, record
            else:
                assert lane == 0, record
    return uploads


def laned_server(catalog, directory):
    server = make_server(catalog, N_SHARDS)
    journal = DurableJournal(
        directory, n_lanes=N_SHARDS, lane_of=server.router.shard_of
    )
    attach_journal(server, journal)
    return server, journal


def test_every_upload_lands_in_its_shards_lane(catalog, tmp_path):
    server, journal = laned_server(catalog, tmp_path)
    ids = sorted(entity.entity_id for entity in catalog)
    server.post_review("reviewer-0", ids[0], 4, 10.0)
    server.receive_all(synth_deliveries(catalog, 0, 80, duplicate_every=5))
    journal.close()
    lanes = records_by_lane(tmp_path)
    router = server.router
    assert assert_routed(lanes, lambda _seq: router.shard_of) > 0
    # The workload spreads over every lane, so the check is not vacuous.
    assert all(lanes.get(lane) for lane in range(N_SHARDS))


def test_lanes_follow_the_router_across_a_live_split(catalog, tmp_path):
    server, journal = laned_server(catalog, tmp_path)
    server.receive_all(synth_deliveries(catalog, 0, 40))
    before = server.router
    perform(server, ReshardOp.split(0))
    reshard_seq = server.reshard_history[-1]["seq"]
    after = server.router
    assert after.n_shards == N_SHARDS + 1
    server.receive_all(synth_deliveries(catalog, 40, 120))
    journal.close()
    lanes = records_by_lane(tmp_path)

    def route_of(seq):
        return (before if seq < reshard_seq else after).shard_of

    assert assert_routed(lanes, route_of) > 0
    # The split's new lane really received post-split uploads.
    assert any(record["seq"] > reshard_seq for record in lanes.get(N_SHARDS, []))


def test_unlaned_journal_writes_everything_to_lane_zero(catalog, tmp_path):
    server = make_server(catalog, N_SHARDS)
    journal = DurableJournal(tmp_path, n_lanes=1, lane_of=None)
    attach_journal(server, journal)
    server.receive_all(synth_deliveries(catalog, 0, 80))
    journal.close()
    lanes = records_by_lane(tmp_path)
    assert set(lanes) == {0}
    assert len(lanes[0]) == server.accepted_envelopes
