"""An executable reference model of RSP intake.

The RSP (the paper's §4, Figure 2) checks each envelope's upload token
once, drops replays by nonce, and files the record in its store.  This
module states those rules as plainly as possible — dicts and sets, one
envelope at a time, no shards, no batching, no telemetry — so that the
real server can be compared against it after every step of a random
operation sequence (``test_stateful.py``).

Classification, first match wins:

1. **outage** — a down endpoint processes nothing: no token is spent and
   no nonce is burned, so a retransmitted copy can still land;
2. **token** — with tokens required, a missing, forged, or already-spent
   token bounces the envelope.  A token failure on a nonce that is
   already accepted counts as a *duplicate*, not a rejection: a replayed
   copy carries its original's (now spent) token;
3. **nonce** — an accepted nonce makes the envelope a duplicate;
4. **record kind** — only interaction and opinion uploads with a string
   ``history_id`` are records; anything else is *malformed*;
5. **unknown entity** — the record names an entity outside the catalog;
6. **store error** — the store cannot index the record's key;
7. **history mismatch** — an interaction whose history is bound to a
   different entity.

Everything else is accepted, and only accepted envelopes burn their
nonce and spend their token: the token step only verifies it, so a
rejected or duplicate envelope leaves its token spendable.  An opinion slot keeps the highest ``seq``; an
opinion that does not beat the slot (a tie included) is still accepted,
counted as stale, and leaves the slot as it was.

The model describes one envelope at a time.  A batch is the same as
delivering its envelopes one by one, provided no two envelopes in it share
a nonce or a token without also sharing a record key: the server may
process a batch in any order that keeps each key's envelopes in delivery
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.aggregation import OpinionUpload
from repro.privacy.history_store import InteractionUpload

#: The counters the model keeps, named as the server's attributes.
COUNTERS = (
    "accepted_envelopes",
    "rejected_envelopes",
    "duplicates_suppressed",
    "opinions_stale",
    "history_mismatches",
    "dropped_by_outage",
)


def _indexable(key) -> bool:
    try:
        hash(key)
    except Exception:
        return False
    return True


@dataclass
class IntakeModel:
    """The reference: classify one envelope at a time and apply its effect."""

    catalog: frozenset[str]
    require_tokens: bool = True
    #: token id -> the signature the issuer produced for it.
    minted: dict[bytes, int] = field(default_factory=dict)
    spent: set[bytes] = field(default_factory=set)
    nonces: set[bytes] = field(default_factory=set)
    #: history id -> (bound entity, records as capture_state encodes them).
    histories: dict[str, tuple[str, list[list]]] = field(default_factory=dict)
    #: history id -> [entity id, rating, seq].
    opinions: dict[str, list] = field(default_factory=dict)
    reviews: dict[str, list[list]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    #: rejection reason -> count.
    rejected: dict[str, int] = field(default_factory=dict)

    def deliver(self, envelope, arrival_time: float, down: bool = False) -> str:
        """Classify one envelope, apply its effect, and return its fate."""
        if down:
            self.counters["dropped_by_outage"] += 1
            return "outage"
        nonce = getattr(envelope, "nonce", None)
        seen = nonce is not None and nonce in self.nonces
        if self.require_tokens and not self._verify(envelope.token):
            return self._duplicate() if seen else self._reject("token")
        if seen:
            return self._duplicate()
        record = envelope.record
        is_record = isinstance(record, (InteractionUpload, OpinionUpload))
        if not is_record or not isinstance(record.history_id, str):
            return self._reject("malformed")
        if record.entity_id not in self.catalog:
            return self._reject("unknown-entity")
        if not _indexable(record.history_id):
            return self._reject("store-error")
        if isinstance(record, InteractionUpload):
            entity_id, records = self.histories.setdefault(
                record.history_id, (record.entity_id, [])
            )
            if entity_id != record.entity_id:
                self.counters["history_mismatches"] += 1
                return self._reject("history-mismatch")
            records.append(
                [
                    record.interaction_type,
                    record.event_time,
                    record.duration,
                    record.travel_km,
                    arrival_time,
                ]
            )
            fate = "accepted"
        else:
            slot = self.opinions.get(record.history_id)
            if slot is None or record.seq > slot[2]:
                self.opinions[record.history_id] = [
                    record.entity_id,
                    record.rating,
                    record.seq,
                ]
                fate = "accepted"
            else:
                self.counters["opinions_stale"] += 1
                fate = "stale"
        if nonce is not None:
            self.nonces.add(nonce)
        if self.require_tokens:
            self.spent.add(envelope.token.token_id)
        self.counters["accepted_envelopes"] += 1
        return fate

    def post_review(self, user_id: str, entity_id: str, rating: int, time: float) -> None:
        self.reviews.setdefault(entity_id, []).append([user_id, rating, time])

    def _verify(self, token) -> bool:
        if token is None or token.token_id in self.spent:
            return False
        return self.minted.get(token.token_id) == token.signature

    def _duplicate(self) -> str:
        self.counters["duplicates_suppressed"] += 1
        return "duplicate"

    def _reject(self, reason: str) -> str:
        self.counters["rejected_envelopes"] += 1
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return reason

    def state(self) -> dict:
        """The model's store content, laid out like ``capture_state``."""
        return {
            "histories": [
                {
                    "history_id": history_id,
                    "entity_id": self.histories[history_id][0],
                    "records": self.histories[history_id][1],
                    "folded": None,
                }
                for history_id in sorted(self.histories)
            ],
            "opinions": {key: self.opinions[key] for key in sorted(self.opinions)},
            "reviews": {key: self.reviews[key] for key in sorted(self.reviews)},
            "nonces": sorted(nonce.hex() for nonce in self.nonces),
            "spent_tokens": sorted(token_id.hex() for token_id in self.spent),
        }
