"""A NaN or infinity in an upload's numbers is malformed at intake.

``InteractionUpload`` and ``OpinionUpload`` refuse a non-finite number
at construction, but nothing stops a record from carrying one after it:
a hand-built or decoded record can, so each poisoned record here is a
valid upload with one field overwritten.  Such a record must be rejected
before it is filed:
the WAL refuses to encode it, so a journaled server that filed it would
abort the whole batch with the record in the store and in no frame.

Each poisoned batch is compared with its twin batch that lacks the
poisoned envelope: the batch completes, the envelope counts as one
more rejection, and neither the store nor the WAL holds it.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.journal import DurableJournal, attach_journal, list_segments
from repro.durability.snapshot import capture_state
from repro.durability.wal import read_wal
from repro.ingest import SyntheticTraffic, WorkloadConfig, ingest_all
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.scale.server import ShardedRSPServer

CONFIG = WorkloadConfig(n_users=200, n_entities=30, seed=5)
N_SHARDS = 4
#: The poisoned envelope's place in the batch: well inside it, so a batch
#: that aborted there would leave most envelopes unclassified.
POISON_AT = 42
POISON_NONCE = b"\xee" * 16


def poisoned(field: str, bad: float, entity_id: str) -> Delivery:
    if field == "rating":
        record = OpinionUpload("h-poison", entity_id, rating=3.0, seq=1)
    else:
        record = InteractionUpload("h-poison", entity_id, "visit", 50.0, 60.0, 1.5)
    # Past the dataclass's own checks, as a hand-built or decoded record
    # could be.
    object.__setattr__(record, field, bad)
    envelope = Envelope(record=record, token=None, nonce=POISON_NONCE)
    return Delivery(payload=envelope, arrival_time=100.0, channel_tag="poison")


def run(batch, directory):
    traffic = SyntheticTraffic(CONFIG)
    server = ShardedRSPServer(traffic.catalog, require_tokens=False, n_shards=N_SHARDS)
    journal = None
    if directory is not None:
        journal = DurableJournal(
            directory, n_lanes=N_SHARDS, lane_of=server.router.shard_of
        )
        attach_journal(server, journal)
    ingest_all(server, batch, now=100.0)
    if journal is not None:
        journal.close()
    return server


def wal_records(directory) -> list[dict]:
    records = [
        record
        for segments in list_segments(directory).values()
        for _start, path in segments
        for record in read_wal(path).records
    ]
    return sorted(records, key=lambda record: record["seq"])


def stored(server) -> dict:
    state = capture_state(server)
    del state["counters"]
    return state


@pytest.mark.parametrize("journaled", [False, True], ids=["plain", "journaled"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["event_time", "duration", "travel_km", "rating"])
def test_non_finite_upload_is_rejected_as_malformed(tmp_path, field, bad, journaled):
    traffic = SyntheticTraffic(CONFIG)
    clean = traffic.batch(150, 100.0)
    entity_id = traffic.catalog[0].entity_id
    batch = clean[:POISON_AT] + [poisoned(field, bad, entity_id)] + clean[POISON_AT:]
    twin_dir = tmp_path / "twin" if journaled else None
    poisoned_dir = tmp_path / "poisoned" if journaled else None

    twin = run(clean, twin_dir)
    server = run(batch, poisoned_dir)

    assert server.accepted_envelopes == twin.accepted_envelopes > 100
    assert server.rejected_envelopes == twin.rejected_envelopes + 1
    assert POISON_NONCE not in server._seen_nonces
    assert stored(server) == stored(twin)
    histories = (h for shard in server.shards for h in shard.store.all_histories())
    assert all(history.history_id != "h-poison" for history in histories)
    assert all("h-poison" not in shard.opinions for shard in server.shards)
    if journaled:
        records = wal_records(poisoned_dir)
        assert records == wal_records(twin_dir)
        assert len(records) == server.accepted_envelopes
        assert all(record.get("history_id") != "h-poison" for record in records)
