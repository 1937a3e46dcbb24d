"""The durable bytes: every WAL segment and snapshot of one scenario pinned,
and each per-kind renderer checked against the generic encoder.

One fixed scenario runs through ``ingest_all`` and a ``DurableJournal``
at 1 and 4 lanes and takes two snapshots.  It covers every record kind
the journal writes — interactions, fresh and stale opinions, suppressed
duplicates, an explicit review and a token issuance — plus histories
with folded records, a non-ASCII history id and float edge values
(``-0.0``, ``5e-324``, ``1e16``, ``1e22``).  The sha256 of every file
the journal leaves on disk is pinned, so any change to how a frame or a
snapshot is rendered fails here byte for byte, whatever the reader
would make of the new bytes.

The Hypothesis properties hold each template to its oracle — the payload
dict the journal used to build, through ``json.dumps``, and the history
dict the snapshot used to build, through ``canonical_json_bytes`` — over
values the scenario cannot reach: control characters, subnormals, ints,
bools and ``numpy.float64`` in float fields.
"""

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.codec import canonical_json_bytes, json_scalar
from repro.durability.journal import (
    DurableJournal,
    attach_journal,
    list_segments,
    render_interaction,
    render_opinion,
)
from repro.durability.snapshot import list_snapshots, render_history
from repro.ingest import ingest_all
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import (
    FoldedStats,
    InteractionHistory,
    InteractionUpload,
    StoredRecord,
)
from repro.telemetry import Telemetry

from tests.durability.conftest import make_server, synth_deliveries

#: Lane count -> {file name: sha256 of its bytes}.
PINNED = {
    1: {
        "snapshot-000000000062.json": "c621dd0de11018b00959141a01857f6973b06a99fbf0ce2f782278531d658836",
        "snapshot-000000000102.json": "4939315c22a93ee642befd9846ebfbe848aa6c98ba6b2c91c98063182d8da1c9",
        "wal-00-000000000063.log": "1832ed2042c36ea9ca853aa752bac2b7360672b7c2d4001ff9c2d1ddc35781c3",
        "wal-00-000000000103.log": "dd9a7f8eb95c7c168985567137ba49429cd180b1b3036caa28b250b6781a9e94",
    },
    4: {
        "snapshot-000000000062.json": "c621dd0de11018b00959141a01857f6973b06a99fbf0ce2f782278531d658836",
        "snapshot-000000000102.json": "4939315c22a93ee642befd9846ebfbe848aa6c98ba6b2c91c98063182d8da1c9",
        "wal-00-000000000063.log": "6b528225c217c55048592b10e98cb21f2ee04865f5c116c41a5412f82ff0d4c9",
        "wal-00-000000000103.log": "4333719776b123a15ecfd81e713cfe54a4c4d5679e7154d38e664805bd170595",
        "wal-01-000000000063.log": "69e9f66fd94fa1ceee9fe03e522d54edd6401625728f31e806efef1704c36730",
        "wal-01-000000000103.log": "6892a8c803d7b17ed5955cc170f040360259a4fb9221566aed6ecaa766610ef6",
        "wal-02-000000000063.log": "0d9a337a1498fd61d4de0130d093dfd51c82968026d8938ecd37adbe5ac79885",
        "wal-02-000000000103.log": "dbc7d79c64ff467667886879e9284d3426d73d12dce63e0d2013fb180093232c",
        "wal-03-000000000063.log": "1bd1d4fa171b6e6c2570871df377a014d00f5eb750cc1f212442598090e71fd6",
        "wal-03-000000000103.log": "65c79a21d4b687907fbc0129dd62bbc69aeff907937b63f40edd6361970e7f32",
    },
}


def delivery(record, nonce: int, arrival: float) -> Delivery:
    envelope = Envelope(record=record, token=None, nonce=nonce.to_bytes(16, "big"))
    return Delivery(payload=envelope, arrival_time=arrival, channel_tag=f"edge-{nonce}")


def edge_deliveries(catalog) -> list[Delivery]:
    """Hand-made uploads whose values stress the JSON text of a frame."""
    ids = sorted(entity.entity_id for entity in catalog)
    odd_id = "hist-\u00e9\u2603\U0001d11e-\"q\"\\-\x01"
    return [
        delivery(InteractionUpload(odd_id, ids[1], "visit", 1e16, 5e-324, -0.0), 9001, 1e22),
        delivery(InteractionUpload(odd_id, ids[1], "call", 0.1 + 0.2, 1e-7, 123456789.125), 9002, 3.5),
        delivery(OpinionUpload(odd_id, ids[1], 2.5, 3), 9003, 4.0),
        # Stale: seq 1 does not beat the slot's 3, yet it is accepted and journaled.
        delivery(OpinionUpload(odd_id, ids[1], 5.0, 1), 9004, 5.0),
        delivery(OpinionUpload("hist-00003", ids[3], 0.0, 0), 9005, 6.0),
    ] + [
        # Five records on one history: the store keeps three, folds two.
        delivery(
            InteractionUpload("hist-fold", ids[4], "visit", 100.0 * i, 30.0 + i, 0.25 * i),
            9100 + i,
            100.0 * i + 7,
        )
        for i in range(5)
    ]


def run_scenario(catalog, directory, n_lanes: int) -> None:
    server = make_server(catalog, n_lanes)
    for shard in server.shards:
        # A small bound folds old records, so snapshots carry folded stats.
        shard.store.max_records_per_history = 3
    journal = DurableJournal(directory, n_lanes=n_lanes, lane_of=server.router.shard_of)
    attach_journal(server, journal)
    ids = sorted(entity.entity_id for entity in catalog)
    ingest_all(server, synth_deliveries(catalog, 0, 60, duplicate_every=7), now=1e5)
    server.post_review("reviewer-\u00fc", ids[2], 4, 7200.5)
    server.issuer.issue("device-7", [2, 3, 5], now=86400.0)
    journal.take_snapshot(server)
    ingest_all(server, edge_deliveries(catalog), now=2e5)
    # Re-delivered envelopes are suppressed duplicates and write no frame.
    ingest_all(server, synth_deliveries(catalog, 40, 90, duplicate_every=3), now=3e5)
    journal.take_snapshot(server)
    ingest_all(server, synth_deliveries(catalog, 90, 110), now=4e5)
    server.post_review("reviewer-1", ids[0], 1, -0.0)
    journal.close()
    assert server.duplicates_suppressed > 0
    assert server.opinions_stale > 0


def file_digests(directory) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("n_lanes", sorted(PINNED))
def test_every_durable_file_is_byte_pinned(catalog, tmp_path, n_lanes):
    run_scenario(catalog, tmp_path, n_lanes)
    digests = file_digests(tmp_path)
    names = [name for name in digests if name.startswith("snapshot-")]
    assert len(names) == 2
    assert digests == PINNED[n_lanes]


# ------------------------------------------------------------- renderers


def old_interaction(record, arrival_time, nonce, token_id, seq) -> dict:
    """The payload dict the journal built before it had templates."""
    return {
        "kind": "interaction",
        "history_id": record.history_id,
        "entity_id": record.entity_id,
        "interaction_type": record.interaction_type,
        "event_time": record.event_time,
        "duration": record.duration,
        "travel_km": record.travel_km,
        "arrival_time": arrival_time,
        "nonce": None if nonce is None else nonce.hex(),
        "token_id": None if token_id is None else token_id.hex(),
        "seq": seq,
    }


def old_opinion(record, nonce, token_id, seq) -> dict:
    return {
        "kind": "opinion",
        "history_id": record.history_id,
        "entity_id": record.entity_id,
        "rating": record.rating,
        "opinion_seq": record.seq,
        "nonce": None if nonce is None else nonce.hex(),
        "token_id": None if token_id is None else token_id.hex(),
        "seq": seq,
    }


def old_history(history) -> dict:
    """The snapshot's history dict before it had a template."""
    folded = history.folded
    return {
        "history_id": history.history_id,
        "entity_id": history.entity_id,
        "records": [
            [
                r.upload.interaction_type,
                r.upload.event_time,
                r.upload.duration,
                r.upload.travel_km,
                r.arrival_time,
            ]
            for r in history.records
        ],
        "folded": None
        if folded is None
        else [
            folded.n,
            folded.earliest_event_time,
            folded.latest_event_time,
            folded.duration_sum,
            folded.travel_sum,
        ],
    }


def dumps(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()


IDS = st.text(max_size=12) | st.sampled_from(["h-\u00e9\u2603\U0001d11e", "\x00\x1f\"\\\u2028"])
FINITE = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2])
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
)
NON_FINITE = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]
)
KEYS = st.none() | st.binary(max_size=16)
SEQS = st.integers(min_value=0, max_value=2**63)
INTERACTION_FLOATS = ("event_time", "duration", "travel_km", "arrival_time")


def upload(draw, floats) -> SimpleNamespace:
    """A duck-typed interaction upload, past any dataclass validation."""
    return SimpleNamespace(
        history_id=draw(IDS),
        entity_id=draw(IDS),
        interaction_type=draw(IDS),
        event_time=draw(floats),
        duration=draw(floats),
        travel_km=draw(floats),
    )


@st.composite
def histories(draw, floats=FINITE):
    folded = None
    if draw(st.booleans()):
        folded = FoldedStats(
            n=draw(st.integers(min_value=0, max_value=2**40)),
            earliest_event_time=draw(floats),
            latest_event_time=draw(floats),
            duration_sum=draw(floats),
            travel_sum=draw(floats),
        )
    records = [
        StoredRecord(upload=upload(draw, floats), arrival_time=draw(floats))
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    return InteractionHistory(
        history_id=draw(IDS), entity_id=draw(IDS), records=records, folded=folded
    )


class TestRenderers:
    @settings(max_examples=150, deadline=None)
    @given(IDS, IDS, IDS, FINITE, FINITE, FINITE, FINITE, KEYS, KEYS, SEQS)
    @example("h-\u00e9\x01", "e", "visit", -0.0, 5e-324, 1e16, 1e22, b"\x00\xff", None, 7)
    @example("h", "e", "call", 3, True, np.float64(0.5), False, None, b"", 2**63)
    def test_interaction_template_is_the_generic_encoding(
        self, history_id, entity_id, kind, event_time, duration, travel_km, arrival,
        nonce, token_id, seq,
    ):
        record = SimpleNamespace(
            history_id=history_id, entity_id=entity_id, interaction_type=kind,
            event_time=event_time, duration=duration, travel_km=travel_km,
        )
        old = old_interaction(record, arrival, nonce, token_id, seq)
        assert render_interaction(record, arrival, nonce, token_id, seq) == dumps(old)

    @settings(max_examples=150, deadline=None)
    @given(IDS, IDS, FINITE, st.integers(min_value=0) | st.booleans(), KEYS, KEYS, SEQS)
    @example("h", "e", np.float64(2.5), True, None, None, 0)
    def test_opinion_template_is_the_generic_encoding(
        self, history_id, entity_id, rating, opinion_seq, nonce, token_id, seq
    ):
        record = SimpleNamespace(
            history_id=history_id, entity_id=entity_id, rating=rating, seq=opinion_seq
        )
        old = old_opinion(record, nonce, token_id, seq)
        assert render_opinion(record, nonce, token_id, seq) == dumps(old)

    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_history_template_is_the_canonical_encoding(self, history):
        assert render_history(history).encode() == canonical_json_bytes(old_history(history))

    def test_fallbacks_render_as_the_generic_encoder(self):
        for value, text in (
            (True, "true"),
            (np.float64(0.1), "0.1"),
            (-0.0, "-0.0"),
            (5e-324, "5e-324"),
            (1e16, "1e+16"),
            (2**70, "1180591620717411303424"),
            ("\u00e9\x01", '"\\u00e9\\u0001"'),
            (None, "null"),
        ):
            assert json_scalar(value) == text == json.dumps(value)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(INTERACTION_FLOATS), NON_FINITE)
    def test_non_finite_interaction_is_refused(self, field, bad):
        record = SimpleNamespace(
            history_id="h", entity_id="e", interaction_type="visit",
            event_time=1.0, duration=2.0, travel_km=3.0,
        )
        arrival = 4.0
        if field == "arrival_time":
            arrival = bad
        else:
            setattr(record, field, bad)
        with pytest.raises(ValueError):
            render_interaction(record, arrival, None, None, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_rating_is_refused(self, bad):
        record = SimpleNamespace(history_id="h", entity_id="e", rating=bad, seq=0)
        with pytest.raises(ValueError):
            render_opinion(record, None, None, 1)

    @settings(max_examples=60, deadline=None)
    @given(histories(floats=FINITE | NON_FINITE))
    def test_history_with_a_non_finite_number_is_refused(self, history):
        old = old_history(history)
        numbers = [n for row in old["records"] + [old["folded"] or []] for n in row[1:]]
        if all(isinstance(n, int) or math.isfinite(n) for n in numbers):
            assert render_history(history).encode() == canonical_json_bytes(old)
        else:
            with pytest.raises(ValueError):
                render_history(history)


class TestRefusalWritesNothing:
    """A refused payload leaves no frame byte, sequence number or count."""

    @pytest.mark.parametrize("field", ["event_time", "duration", "travel_km"])
    def test_non_finite_interaction_writes_no_frame(self, tmp_path, field):
        telemetry = Telemetry()
        journal = DurableJournal(tmp_path, telemetry=telemetry)
        good = InteractionUpload("h", "e", "visit", 1.0, 2.0, 3.0)
        journal.log_interaction(good, 5.0, b"\x01", None, 0)
        segment = list_segments(tmp_path)[0][0][1]
        size = segment.stat().st_size
        bad = InteractionUpload("h", "e", "visit", 1.0, 2.0, 3.0)
        object.__setattr__(bad, field, math.nan)
        with pytest.raises(ValueError):
            journal.log_interaction(bad, 6.0, b"\x02", None, 0)
        with pytest.raises(ValueError):
            journal.log_interaction(good, math.inf, b"\x03", None, 0)
        bad_opinion = OpinionUpload("h", "e", 4.0, 1)
        object.__setattr__(bad_opinion, "rating", -math.inf)
        with pytest.raises(ValueError):
            journal.log_opinion(bad_opinion, b"\x04", None, 0)
        assert segment.stat().st_size == size
        assert journal.next_seq == 2
        assert telemetry.total("wal.appends") == 1
        journal.close()

    def test_non_finite_history_writes_no_snapshot(self, catalog, tmp_path):
        server = make_server(catalog)
        journal = DurableJournal(tmp_path)
        attach_journal(server, journal)
        entity_id = sorted(server.catalog)[0]
        record = InteractionUpload("h-bad", entity_id, "visit", 1.0, 2.0, 3.0)
        object.__setattr__(record, "duration", math.inf)
        server.shards[0].store.adopt(
            InteractionHistory("h-bad", entity_id, [StoredRecord(record, 9.0)])
        )
        with pytest.raises(ValueError):
            journal.take_snapshot(server)
        assert list_snapshots(tmp_path) == []
        assert not list(tmp_path.glob("*.tmp"))
        journal.close()
