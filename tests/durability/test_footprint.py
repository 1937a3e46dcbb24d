"""What a stored record and a recovery cost in memory.

The repository keeps one history per (user, entity) pair for years, so
the per-record classes carry no instance ``__dict__``.  Recovery decodes
a snapshot one history at a time and replays the WAL one record per lane
at a time: beyond the state it rebuilds, its heap peak stays within twice
the snapshot it loads.  A compact-layout snapshot's seal is checked over
its bytes, never by re-encoding the parsed state.
"""

import gc
import json
import tracemalloc

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability import codec
from repro.durability import snapshot as snapshot_module
from repro.durability.codec import seal
from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.recovery import recover_server
from repro.durability.snapshot import (
    SNAPSHOT_FORMAT,
    capture_state,
    list_snapshots,
    load_latest_snapshot,
    restore_state,
    snapshot_name,
)
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import (
    FoldedStats,
    InteractionHistory,
    InteractionUpload,
    StoredRecord,
)

from tests.durability.conftest import comparable_state, make_server, synth_deliveries


def test_per_record_classes_have_no_instance_dict():
    upload = InteractionUpload("h", "e", "visit", 1.0, 2.0, 3.0)
    opinion = OpinionUpload("h", "e", 4.0, 1)
    stored = StoredRecord(upload=upload, arrival_time=5.0)
    envelope = Envelope(record=opinion, token=None, nonce=b"n")
    instances = [
        upload,
        opinion,
        stored,
        envelope,
        Delivery(payload=envelope, arrival_time=5.0, channel_tag="c"),
        InteractionHistory("h", "e", records=[stored], folded=FoldedStats()),
        FoldedStats(),
    ]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__


@pytest.fixture
def journaled(catalog, tmp_path):
    """A 4-shard journaled server: 4,000 deliveries under a snapshot, then
    1,000 more in the WAL tail."""
    server = make_server(catalog, 4)
    attach_journal(server, DurableJournal(tmp_path, n_lanes=4, lane_of=server.router.shard_of))
    server.receive_all(synth_deliveries(catalog, 0, 4000))
    server.journal.take_snapshot(server)
    server.receive_all(synth_deliveries(catalog, 4000, 5000))
    server.journal.close()
    return server, tmp_path


def test_recovery_peak_is_within_twice_the_snapshot(catalog, journaled):
    server, directory = journaled
    snapshot_bytes = list_snapshots(directory)[-1][1].stat().st_size
    recovered = make_server(catalog, 4)
    gc.collect()
    tracemalloc.start()
    try:
        recover_server(recovered, directory)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept <= 2 * snapshot_bytes, (
        f"recovery peaked {(peak - kept) / snapshot_bytes:.2f}x the "
        f"{snapshot_bytes}-byte snapshot above what it keeps"
    )
    assert comparable_state(recovered) == comparable_state(server)


@pytest.fixture
def encodes(monkeypatch):
    """Every object the canonical encoder is asked to encode while loading."""
    seen = []
    original = codec.canonical_json_bytes

    def spy(obj):
        seen.append(obj)
        return original(obj)

    monkeypatch.setattr(codec, "canonical_json_bytes", spy)
    monkeypatch.setattr(snapshot_module, "canonical_json_bytes", spy)
    return seen


def test_compact_snapshot_loads_without_re_encoding_its_state(catalog, journaled, encodes):
    server, directory = journaled
    seq, state = load_latest_snapshot(directory)
    restored = make_server(catalog, 4)
    restore_state(restored, state)
    assert not [obj for obj in encodes if isinstance(obj, dict)]
    assert state == json.loads(snapshot_module.render_state(restored, seq))


def test_spaced_snapshot_still_re_derives_its_digest(tmp_path, encodes):
    """The spy's control: a snapshot in the older spaced layout has no
    state bytes to hash, so its digest comes from re-encoding the parse."""
    state = {"counters": {}, "histories": []}
    path = tmp_path / snapshot_name(3)
    path.write_bytes(json.dumps(seal(state, SNAPSHOT_FORMAT), sort_keys=True).encode())
    encodes.clear()
    assert load_latest_snapshot(tmp_path) == (3, state)
    assert state in encodes


def test_loaded_snapshot_streams_what_capture_holds(catalog, journaled):
    server, directory = journaled
    seq, state = load_latest_snapshot(directory)
    restored = make_server(catalog, 4)
    restore_state(restored, state)
    assert capture_state(restored, seq) == state
