"""``capture_state`` and ``render_state`` are two encodings of one state.

``render_state`` writes the canonical bytes; ``capture_state`` builds the
dict from the live objects.  For any server content — folded histories,
float edge values, non-ASCII ids, opinions, reviews, issuer windows and
reshards, at 1 and 4 shards — the dict must equal the parse of the bytes,
and encode back to the very same bytes.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.codec import canonical_json_bytes
from repro.durability.snapshot import capture_state, render_state
from repro.ingest import ingest_all
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.reshard import ReshardOp, perform

from tests.durability.conftest import make_server

EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e22, 1e16, 0.1 + 0.2, 123456789.125)
HISTORY_IDS = ("h-0", "h-1", "h-\u00e9\u2603", 'h-"q"\\-\x01', "h-\U0001d11e")
DEVICES = ("device-0", "device-\u00fc")

non_negative = st.sampled_from(EDGE_FLOATS[:-1] + (7.5,)) | st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
any_finite = st.sampled_from(EDGE_FLOATS) | st.floats(
    allow_nan=False, allow_infinity=False
)
interaction = st.tuples(
    st.just("interaction"),
    st.sampled_from(HISTORY_IDS),
    st.sampled_from(("visit", "call")),
    any_finite,
    non_negative,
    non_negative,
    any_finite,
)
opinion = st.tuples(
    st.just("opinion"),
    st.sampled_from(HISTORY_IDS),
    st.sampled_from((-0.0, 0.0, 2.5, 5.0)) | st.floats(min_value=0.0, max_value=5.0),
    st.integers(min_value=0, max_value=3),
)
review = st.tuples(
    st.just("review"),
    st.sampled_from(("reviewer-1", "reviewer-\u00fc")),
    st.integers(min_value=1, max_value=5),
    any_finite,
)
issue = st.tuples(
    st.just("issue"), st.sampled_from(DEVICES), st.integers(1, 3), non_negative
)
operations = st.lists(st.one_of(interaction, opinion, review, issue), max_size=25)


def build(catalog, n_shards, ops, fold_bound, reshard):
    server = make_server(catalog, n_shards)
    for shard in server.shards:
        shard.store.max_records_per_history = fold_bound
    entity_ids = sorted(server.catalog)
    # One entity per history id: a history is bound to its entity.
    entity_of = {hid: entity_ids[i % len(entity_ids)] for i, hid in enumerate(HISTORY_IDS)}
    deliveries = []
    for nonce, op in enumerate(ops):
        if op[0] == "interaction":
            _, hid, kind, event_time, duration, travel, arrival = op
            record = InteractionUpload(hid, entity_of[hid], kind, event_time, duration, travel)
        elif op[0] == "opinion":
            _, hid, rating, seq = op
            record = OpinionUpload(hid, entity_of[hid], rating, seq)
            arrival = 1.0
        elif op[0] == "review":
            _, user_id, rating, time = op
            server.post_review(user_id, entity_ids[0], rating, time)
            continue
        else:
            _, device_id, count, now = op
            server.issuer.issue(device_id, list(range(count)), now=now)
            continue
        envelope = Envelope(record=record, token=None, nonce=nonce.to_bytes(16, "big"))
        deliveries.append(Delivery(payload=envelope, arrival_time=arrival, channel_tag="c"))
    ingest_all(server, deliveries, now=0.0)
    if reshard:
        perform(server, ReshardOp.split(0))
    return server


@settings(max_examples=60, deadline=None)
@given(
    ops=operations,
    n_shards=st.sampled_from((1, 4)),
    fold_bound=st.sampled_from((None, 2, 3)),
    reshard=st.booleans(),
    wal_seq=st.integers(min_value=0, max_value=10**6),
)
@example(
    ops=[
        ("interaction", hid, "visit", value, abs(value), abs(value), value)
        for hid in HISTORY_IDS[:3]
        for value in EDGE_FLOATS
    ]
    + [("opinion", HISTORY_IDS[2], -0.0, 1), ("review", "reviewer-\u00fc", 4, -0.0)]
    + [("issue", DEVICES[1], 2, 1e22)],
    n_shards=4,
    fold_bound=2,
    reshard=True,
    wal_seq=7,
)
def test_capture_is_the_parse_of_render(catalog, ops, n_shards, fold_bound, reshard, wal_seq):
    server = build(catalog, n_shards, ops, fold_bound, reshard)
    rendered = render_state(server, wal_seq)
    captured = capture_state(server, wal_seq)
    assert captured == json.loads(rendered)
    assert canonical_json_bytes(captured) == rendered
    # The capture shares the live numbers and strings, never a live
    # container: taking it apart leaves the server's bytes alone.
    take_apart(captured)
    assert render_state(server, wal_seq) == rendered


def take_apart(value) -> None:
    """Empty every container in ``value``, innermost first."""
    if isinstance(value, (dict, list)):
        for item in list(value.values() if isinstance(value, dict) else value):
            take_apart(item)
        value.clear()
