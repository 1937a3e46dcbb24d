"""A non-finite review time is refused before anything is written.

``post_review`` builds the :class:`ExplicitReview` before it journals or
files it, so the review's own check is the one gate: a NaN or infinite
``time`` must leave no review in the store, no WAL frame and no
``rsp.reviews.posted`` count, journaled or not, at any shard count.
"""

import pytest

from repro.durability.journal import DurableJournal, attach_journal, list_segments
from repro.durability.snapshot import render_state
from repro.durability.wal import read_wal
from repro.service.server import ExplicitReview
from repro.telemetry import Telemetry

from tests.durability.conftest import make_server


def test_explicit_review_refuses_a_non_finite_time():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            ExplicitReview(user_id="u", entity_id="e", rating=4, time=bad)


@pytest.mark.parametrize("journaled", [False, True], ids=["plain", "journaled"])
@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_review_time_writes_nothing(catalog, tmp_path, bad, n_shards, journaled):
    server = make_server(catalog, n_shards)
    telemetry = Telemetry()
    server.attach_telemetry(telemetry)
    journal = None
    if journaled:
        journal = DurableJournal(
            tmp_path, n_lanes=n_shards, lane_of=server.router.shard_of
        )
        attach_journal(server, journal)
    entity_id = sorted(server.catalog)[0]
    server.post_review("reviewer-1", entity_id, 4, 100.0)
    before = render_state(server)

    with pytest.raises(ValueError, match="finite"):
        server.post_review("reviewer-2", entity_id, 3, bad)

    assert render_state(server) == before
    assert [len(shard.reviews.get(entity_id, ())) for shard in server.shards].count(1) == 1
    assert telemetry.total("rsp.reviews.posted") == 1
    if journal is not None:
        assert journal.next_seq == 2
        journal.close()
        frames = [
            record
            for segments in list_segments(tmp_path).values()
            for _start, path in segments
            for record in read_wal(path).records
        ]
        assert [frame["user_id"] for frame in frames] == ["reviewer-1"]
