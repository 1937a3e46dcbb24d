"""The RSP's intake loop: classify, dedup, and file every envelope.

This module holds the one implementation of intake classification.
:meth:`repro.service.server.RSPServer.receive_all` calls
:func:`ingest_all`; ``receive`` calls :func:`ingest_one`.  The
server is duck-typed, so this module imports no server class.

Classification, first match wins:

1. **outage** — a down endpoint processes nothing, so neither the token
   nor the nonce of a lost envelope is consumed and a retransmitted copy
   can still land;
2. **token** — the trust boundary comes before dedup: only token-valid
   envelopes may *write* dedup state, so an unauthenticated sender can
   never squat a nonce and suppress someone's legitimate record (it is
   spent only on acceptance).  A token failure on an accepted nonce is a
   suppressed duplicate rather than a rejection: an identical
   network-replayed copy carries its original's spent token;
3. **nonce** — idempotent dedup of accepted envelopes;
4. **record kind** — interaction and opinion uploads with a string
   ``history_id`` and finite numbers (``event_time``, ``duration`` and
   ``travel_km``, or ``rating``); anything else is ``malformed``.  A NaN
   or infinity could be filed but never journaled, since the WAL refuses
   it, so it must not get past this step (a field that is no number at
   all is a store error);
5. **unknown entity**;
6. **store error** — the store cannot index the record;
7. **history mismatch** — the identifier is bound to another entity: a
   client bug or a corruption attempt, kept out of the generic bucket so
   fraud-facing dashboards see it.

Acceptance is the transition WAL replay and the replica share
(:mod:`repro.durability.recovery`): ``ShardState.write`` files the record
(an opinion that does not beat its slot's ``seq`` is accepted as stale),
then ``RSPServer.commit_acceptance`` counts it, burns its nonce and
spends its token — so a record that raises mid-dispatch commits nothing
and may be repaired and retransmitted under the same nonce.  Only intake
feeds the engine's dirty marks and opinion claims; recovery rebuilds them.

The loop is written for speed, since every deployment runs it:

* a batch is routed once per envelope and grouped per shard, so each
  shard's writes are contiguous and its tables are bound once per group.
  Within a shard, delivery order is preserved; all state an envelope
  touches is keyed by values the envelope carries, so regrouping across
  shards changes no outcome.  At one shard the batch is the group and
  nothing is routed;
* attribute and method lookups are hoisted out of the loop, and
  record-kind dispatch is memoized per concrete class;
* telemetry is accumulated in locals and emitted once per batch —
  counters and histogram state are commutative integer arithmetic
  (:mod:`repro.telemetry.registry`), and an instrument is only touched
  when its total is non-zero.

Durability: accepted mutations are journaled through the server's
``journal`` *before* the acceptance commit (WAL-before-ack), and a batch
group-commits with ``sync_to_disk``.  Each record is journaled with the
shard its group was routed to, which is its WAL lane — the journal
never routes an upload a second time.  Fault hooks are probed once per
delivery — ``server_down`` may have per-call side effects.  Counters and
telemetry are committed in a ``finally`` block: a journal failure must
propagate (the process dies rather than acknowledge unlogged state), and
everything processed before the failing record stays counted.
"""

from __future__ import annotations

from math import isfinite

from repro.core.aggregation import OpinionUpload
from repro.privacy.history_store import InteractionUpload
from repro.scale.shard import MISMATCH, STALE
from repro.telemetry.catalog import (
    INGEST_LAG_BUCKETS,
    INTAKE_BATCH_BUCKETS,
    SHARD_BATCH_BUCKETS,
)
from repro.telemetry.registry import DEPLOYMENT

#: Record-kind memo shared across batches: concrete class -> "interaction",
#: "opinion", or None (malformed).  Keyed on the class object, so
#: subclasses resolve through one ``isinstance`` pass on first sighting.
_KIND_MEMO: dict[type, str | None] = {}


def _kind_of(record) -> str | None:
    cls = record.__class__
    if isinstance(record, InteractionUpload):
        kind = "interaction"
    elif isinstance(record, OpinionUpload):
        kind = "opinion"
    else:
        kind = None
    _KIND_MEMO[cls] = kind
    return kind


def ingest_all(server, deliveries, now: float | None = None) -> int:
    """Process a batch of deliveries; returns how many were accepted.

    ``now`` overrides the time the outage check sees: a catch-up batch
    job processing a backlog held through an outage passes its own
    (post-outage) processing time, because the endpoint being down when
    an envelope *queued* must not drop it once it is processed later.
    """
    telemetry = server.telemetry
    telemetry.observe(
        "rsp.intake.batch", len(deliveries), buckets=INTAKE_BATCH_BUCKETS
    )
    groups = _group_by_shard(server.router, deliveries)
    for shard_index, group in groups:
        telemetry.observe(
            "rsp.shard.batch",
            len(group),
            buckets=SHARD_BATCH_BUCKETS,
            scope=DEPLOYMENT,
            shard=shard_index,
        )
    accepted = _classify(server, groups, now)
    if server.journal is not None:
        # Group commit: each accepted envelope's WAL frame was already
        # flushed before its ack; the batch boundary is where the journal
        # fsyncs for power-loss durability.
        server.journal.sync_to_disk()
    return accepted


def ingest_one(server, delivery, now: float | None = None) -> bool:
    """Process one delivery, without batch telemetry or a group commit."""
    return _classify(server, _group_by_shard(server.router, [delivery]), now) == 1


def _group_by_shard(router, deliveries) -> list[tuple[int, list]]:
    """``(shard, deliveries)`` pairs, delivery order kept within a shard.

    A record without a string ``history_id`` cannot be routed; it waits in
    shard 0's group and is classified malformed there.
    """
    if router.n_shards == 1:
        return [(0, deliveries)] if deliveries else []
    shard_of = router.shard_of
    groups: list[list] = [[] for _ in range(router.n_shards)]
    for delivery in deliveries:
        key = getattr(delivery.payload.record, "history_id", None)
        groups[shard_of(key) if isinstance(key, str) else 0].append(delivery)
    return [(index, group) for index, group in enumerate(groups) if group]


def _classify(server, groups, now: float | None) -> int:
    """The intake loop over pre-routed groups; returns the accepted count."""
    telemetry = server.telemetry
    hook = server.fault_hook
    journal = server.journal
    require_tokens = server.require_tokens
    verify = server._redeemer.verify
    commit_acceptance = server.commit_acceptance
    seen_nonces = server._seen_nonces
    catalog = server.catalog
    mark_dirty = server._engine.mark_dirty
    note_opinion = server._engine.note_opinion
    kind_memo = _KIND_MEMO
    kind_of = _kind_of
    is_instance = isinstance
    string = str
    finite = isfinite

    rejected: dict[str, int] = {}
    lags: list[float] = []
    lag = lags.append
    # Hot counters live in locals; the ``finally`` below commits them even
    # when a journal failure aborts the loop mid-batch.
    outage_dropped = duplicates = stale = mismatches = 0
    accepted_interactions = accepted_opinions = 0
    token_id = None
    try:
        for shard_index, group in groups:
            shard = server.shards[shard_index]
            write = shard.write
            histories_get = shard.store._histories.get
            opinions_get = shard.opinions.get
            for delivery in group:
                envelope = delivery.payload
                arrival = delivery.arrival_time
                if hook is not None and hook.server_down(
                    arrival if now is None else now
                ):
                    outage_dropped += 1
                    continue
                # try/except over getattr-with-default: attribute access is
                # free when it hits (the wire Envelope always carries a
                # nonce), and the exception path only fires for foreign
                # payloads.
                try:
                    nonce = envelope.nonce
                except AttributeError:
                    nonce = None
                if require_tokens:
                    token = envelope.token
                    if token is None or not verify(token):
                        if nonce is not None and nonce in seen_nonces:
                            duplicates += 1
                        else:
                            rejected["token"] = rejected.get("token", 0) + 1
                        continue
                    token_id = token.token_id
                if nonce is not None and nonce in seen_nonces:
                    duplicates += 1
                    continue
                record = envelope.record
                try:
                    kind = kind_memo[record.__class__]
                except KeyError:
                    kind = kind_of(record)
                if kind is None or not is_instance(history_id := record.history_id, string):
                    rejected["malformed"] = rejected.get("malformed", 0) + 1
                    continue
                try:
                    # A field that is no number at all raises here and
                    # lands in the store-error bucket below.
                    if not (
                        finite(record.event_time)
                        and finite(record.duration)
                        and finite(record.travel_km)
                        if kind == "interaction"
                        else finite(record.rating)
                    ):
                        rejected["malformed"] = rejected.get("malformed", 0) + 1
                        continue
                    entity_id = record.entity_id
                    if entity_id not in catalog:
                        rejected["unknown-entity"] = (
                            rejected.get("unknown-entity", 0) + 1
                        )
                        continue
                    if kind == "interaction":
                        if write(kind, record, arrival) == MISMATCH:
                            mismatches += 1
                            rejected[MISMATCH] = rejected.get(MISMATCH, 0) + 1
                            continue
                        mark_dirty(entity_id)
                    else:
                        existing = opinions_get(history_id)
                        if write(kind, record) == STALE:
                            stale += 1
                        else:
                            owner = histories_get(history_id)
                            note_opinion(existing, record, owner and owner.entity_id)
                except Exception:
                    # Store dispatch blew up: nothing was written, so
                    # nothing may be marked accepted.
                    rejected["store-error"] = rejected.get("store-error", 0) + 1
                    continue
                # WAL-before-ack: the mutation is journaled (and flushed)
                # before the acceptance commits, so a crash on either side
                # of this line is recoverable — see docs/DURABILITY.md.
                if journal is not None:
                    if kind == "interaction":
                        journal.log_interaction(
                            record, arrival, nonce, token_id, shard_index
                        )
                    else:
                        journal.log_opinion(record, nonce, token_id, shard_index)
                commit_acceptance(nonce, token_id)
                if kind == "interaction":
                    accepted_interactions += 1
                    lag(arrival - record.event_time)
                else:
                    accepted_opinions += 1
    finally:
        accepted = accepted_interactions + accepted_opinions
        server.rejected_envelopes += sum(rejected.values())
        server.duplicates_suppressed += duplicates
        server.dropped_by_outage += outage_dropped
        server.opinions_stale += stale
        server.history_mismatches += mismatches
        inc = telemetry.inc
        if accepted_interactions:
            inc("rsp.envelopes.accepted", accepted_interactions, record="interaction")
        if accepted_opinions:
            inc("rsp.envelopes.accepted", accepted_opinions, record="opinion")
        for reason, count in rejected.items():
            inc("rsp.envelopes.rejected", count, reason=reason)
        if duplicates:
            inc("rsp.envelopes.duplicate", duplicates)
        if outage_dropped:
            inc("rsp.envelopes.outage_dropped", outage_dropped)
        if stale:
            inc("rsp.opinions.stale", stale)
        if lags:
            telemetry.observe_many("rsp.ingest_lag", lags, buckets=INGEST_LAG_BUCKETS)
    return accepted
