"""The RSP's intake loop: classify, dedup, and file every envelope.

This module holds the one implementation of intake classification.
:meth:`repro.service.server.RSPServer.receive_all` and ``receive_batch``
call :func:`ingest_all`; ``receive`` calls :func:`ingest_one`.  The
server is duck-typed, so this module imports no server class.

Classification, first match wins:

1. **outage** — a down endpoint processes nothing, so neither the token
   nor the nonce of a lost envelope is consumed and a retransmitted copy
   can still land;
2. **token** — the trust boundary comes before dedup: only token-valid
   envelopes may *write* dedup state, so an unauthenticated sender can
   never squat a nonce and suppress someone's legitimate record.  A token
   failure on an already-accepted nonce counts as a suppressed duplicate
   rather than a rejection: an identical network-replayed copy carries
   its original's spent token;
3. **nonce** — idempotent dedup of accepted envelopes;
4. **record kind** — interaction and opinion uploads with a string
   ``history_id``; anything else is ``malformed``;
5. **unknown entity**;
6. **store error** — the store cannot index the record;
7. **history mismatch** — the identifier is bound to another entity: a
   client bug or a corruption attempt, kept out of the generic bucket so
   fraud-facing dashboards see it.

Acceptance is transactional with store dispatch: the accept counter and
the nonce table are touched only after the record is in its store, so a
record that raises mid-dispatch neither inflates the counters nor burns
its nonce — the sender may repair and retransmit under the same nonce.
An opinion slot keeps the highest ``seq``; a re-upload that does not beat
it is accepted as stale and skips the slot write.

The loop is written for speed, since every deployment runs it:

* a batch is routed once per envelope and grouped per shard, so each
  shard's writes are contiguous and its tables are bound once per group.
  Within a shard, delivery order is preserved; all state an envelope
  touches is keyed by values the envelope carries, so regrouping across
  shards changes no outcome.  At one shard the batch is the group and
  nothing is routed;
* attribute and method lookups are hoisted out of the loop, record-kind
  dispatch is memoized per concrete class, and the history-store append
  is inlined so the mismatch check and the write share one dict probe;
* telemetry is accumulated in locals and emitted once per batch —
  counters and histogram state are commutative integer arithmetic
  (:mod:`repro.telemetry.registry`), and an instrument is only touched
  when its total is non-zero.

Durability: accepted mutations are journaled through the server's
``journal`` *before* the acceptance commit (WAL-before-ack), and a batch
group-commits with ``sync_to_disk``.  Fault hooks are probed once per
delivery — ``server_down`` may have per-call side effects.  Counters and
telemetry are committed in a ``finally`` block: a journal failure must
propagate (the process dies rather than acknowledge unlogged state), and
everything processed before the failing record stays counted.
"""

from __future__ import annotations

from repro.core.aggregation import OpinionUpload
from repro.privacy.history_store import (
    InteractionHistory,
    InteractionUpload,
    StoredRecord,
)
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
    redeem = server._redeemer.redeem
    bucket_of = server.router.shard_of_bytes
    nonce_buckets = server._nonce_buckets
    # At one shard every nonce meets in the one bucket: skip its route.
    only_bucket = nonce_buckets[0] if len(nonce_buckets) == 1 else None
    catalog = server.catalog
    note_opinion = server._engine.note_opinion
    kind_memo = _KIND_MEMO
    kind_of = _kind_of
    is_instance = isinstance
    string = str
    stored_record = StoredRecord
    new_history = InteractionHistory

    rejected: dict[str, int] = {}
    lags: list[float] = []
    lag = lags.append
    # Hot counters live in locals; the ``finally`` below commits them even
    # when a journal failure aborts the loop mid-batch.
    outage_dropped = duplicates = stale = mismatches = 0
    accepted_interactions = accepted_opinions = 0
    try:
        for shard_index, group in groups:
            shard = server.shards[shard_index]
            # The versions only key the shard's caches, so one bump per
            # group up front does: a bump with nothing stored costs a cache
            # rebuild, never a wrong answer.
            shard.store_version += 1
            shard.version += 1
            histories = shard.store._histories
            histories_get = histories.get
            by_entity = shard.store._by_entity
            opinions = shard.opinions
            opinions_get = opinions.get
            mark_dirty = shard.dirty_entities.add
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
                if nonce is None:
                    nonce_bucket = None
                elif only_bucket is not None:
                    nonce_bucket = only_bucket
                else:
                    nonce_bucket = nonce_buckets[bucket_of(nonce)]
                if require_tokens:
                    token = envelope.token
                    if token is None or not redeem(token):
                        if nonce_bucket is not None and nonce in nonce_bucket:
                            duplicates += 1
                        else:
                            rejected["token"] = rejected.get("token", 0) + 1
                        continue
                if nonce_bucket is not None and nonce in nonce_bucket:
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
                    entity_id = record.entity_id
                    if entity_id not in catalog:
                        rejected["unknown-entity"] = (
                            rejected.get("unknown-entity", 0) + 1
                        )
                        continue
                    if kind == "interaction":
                        # The history-store append, inlined: the mismatch
                        # check and the write share one dict probe.
                        history = histories_get(history_id)
                        if history is None:
                            history = new_history(history_id, entity_id)
                            histories[history_id] = history
                            bound = by_entity.get(entity_id)
                            if bound is None:
                                by_entity[entity_id] = [history]
                            else:
                                bound.append(history)
                        elif history.entity_id != entity_id:
                            mismatches += 1
                            rejected["history-mismatch"] = (
                                rejected.get("history-mismatch", 0) + 1
                            )
                            continue
                        history.records.append(stored_record(record, arrival))
                        mark_dirty(entity_id)
                    else:
                        existing = opinions_get(history_id)
                        if existing is None or record.seq > existing.seq:
                            opinions[history_id] = record
                            owner = histories_get(history_id)
                            note_opinion(
                                existing,
                                record,
                                owner=None if owner is None else owner.entity_id,
                            )
                        else:
                            # A delayed/reordered re-upload older than (or
                            # tying) the slot: drop the write, but accept
                            # the envelope — the sender behaved correctly
                            # and must not retransmit.
                            stale += 1
                except Exception:
                    # Store dispatch blew up: nothing was written, so
                    # nothing may be marked accepted.
                    rejected["store-error"] = rejected.get("store-error", 0) + 1
                    continue
                # WAL-before-ack: the mutation is journaled (and flushed)
                # before the accept counter and nonce burn commit, so a
                # crash on either side of this line is recoverable — see
                # docs/DURABILITY.md.
                if journal is not None:
                    token_id = token.token_id if require_tokens else None
                    if kind == "interaction":
                        journal.log_interaction(record, arrival, nonce, token_id)
                    else:
                        journal.log_opinion(record, nonce, token_id)
                if nonce_bucket is not None:
                    nonce_bucket.add(nonce)
                if kind == "interaction":
                    accepted_interactions += 1
                    lag(arrival - record.event_time)
                else:
                    accepted_opinions += 1
    finally:
        accepted = accepted_interactions + accepted_opinions
        server.accepted_envelopes += accepted
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
