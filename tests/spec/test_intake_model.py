"""The reference model's rules, one example each."""

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.privacy.history_store import InteractionUpload
from repro.privacy.tokens import UploadToken

from tests.spec.intake_model import IntakeModel

GOOD = UploadToken(token_id=b"good", signature=7)
OTHER = UploadToken(token_id=b"other", signature=9)


def model(require_tokens=True):
    return IntakeModel(
        frozenset({"e1", "e2"}),
        require_tokens=require_tokens,
        minted={GOOD.token_id: GOOD.signature, OTHER.token_id: OTHER.signature},
    )


def visit(history_id="h1", entity_id="e1"):
    return InteractionUpload(
        history_id=history_id,
        entity_id=entity_id,
        interaction_type="visit",
        event_time=0.0,
        duration=60.0,
        travel_km=1.0,
    )


def opinion(seq, rating=4.0, history_id="h1"):
    return OpinionUpload(history_id=history_id, entity_id="e1", rating=rating, seq=seq)


def test_outage_comes_first_and_consumes_nothing():
    m = model()
    assert m.deliver(Envelope(visit(), GOOD, b"n"), 1.0, down=True) == "outage"
    assert not m.spent and not m.nonces
    assert m.deliver(Envelope(visit(), GOOD, b"n"), 2.0) == "accepted"


def test_token_failure_on_a_seen_nonce_is_a_duplicate():
    m = model()
    envelope = Envelope(visit(), GOOD, b"n")
    assert m.deliver(envelope, 1.0) == "accepted"
    assert m.deliver(envelope, 2.0) == "duplicate"
    assert m.deliver(Envelope(visit(), None, b"fresh"), 3.0) == "token"


def test_nonce_is_checked_after_the_token():
    m = model()
    assert m.deliver(Envelope(visit(), GOOD, b"n"), 1.0) == "accepted"
    assert m.deliver(Envelope(visit(), OTHER, b"n"), 2.0) == "duplicate"
    assert OTHER.token_id in m.spent


def test_only_accepted_envelopes_burn_nonces_but_tokens_always_spend():
    m = model()
    assert m.deliver(Envelope(visit(entity_id="ghost"), GOOD, b"n"), 1.0) == "unknown-entity"
    assert GOOD.token_id in m.spent and not m.nonces
    assert m.deliver(Envelope(visit(), OTHER, b"n"), 2.0) == "accepted"


def test_record_kind_precedes_entity_and_key_checks():
    m = model(require_tokens=False)
    assert m.deliver(Envelope("not a record", None, b"a"), 1.0) == "malformed"
    assert m.deliver(Envelope(visit(history_id=12345, entity_id="ghost"), None, b"b"), 1.0) == (
        "malformed"
    )


def test_history_binds_to_its_first_entity():
    m = model(require_tokens=False)
    assert m.deliver(Envelope(visit(entity_id="e1"), None, b"a"), 1.0) == "accepted"
    assert m.deliver(Envelope(visit(entity_id="e2"), None, b"b"), 1.0) == "history-mismatch"
    assert m.counters["history_mismatches"] == 1


def test_highest_seq_wins_and_a_tie_keeps_the_slot():
    m = model(require_tokens=False)
    assert m.deliver(Envelope(opinion(2, rating=3.0), None, b"a"), 1.0) == "accepted"
    assert m.deliver(Envelope(opinion(2, rating=5.0), None, b"b"), 1.0) == "stale"
    assert m.deliver(Envelope(opinion(1, rating=1.0), None, b"c"), 1.0) == "stale"
    assert m.opinions["h1"] == ["e1", 3.0, 2]
    assert m.deliver(Envelope(opinion(3, rating=1.0), None, b"d"), 1.0) == "accepted"
    assert m.opinions["h1"] == ["e1", 1.0, 3]
    assert m.counters["accepted_envelopes"] == 4
