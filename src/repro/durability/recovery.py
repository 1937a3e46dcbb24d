"""Crash recovery: snapshot load + WAL replay into a fresh server.

The recovery invariant (tested by the crash-matrix suite): for any
prefix of the durable directory a crash can leave behind — any snapshot
boundary, any WAL record boundary, any torn final frame —

    recover(fresh_server, directory) + redeliver(everything)

produces byte-identical maintenance reports and summaries to a server
that never crashed.  The two halves of that equation:

* replay reconstructs exactly the accepted mutations the WAL covers,
  including the dedup nonce table, the spent-token table, and per-slot
  opinion ``seq`` — so re-delivered duplicates and stale re-uploads are
  suppressed after recovery exactly as before;
* whatever the torn tail lost was, by the commit protocol, never
  acknowledged (the WAL is written *before* the acceptance commit), so
  the existing client retransmission machinery re-sends it.

Replay applies mutations directly to the stores — not through
``receive()`` — because a WAL record *is* an acceptance decision already
made; re-running validation would need the original envelope (token
signature and all), which the log deliberately does not retain.
:func:`apply_mutation` is shared with log shipping: a replica applying a
shipped batch is replaying the primary's WAL.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.aggregation import OpinionUpload
from repro.durability.journal import list_segments
from repro.durability.snapshot import load_latest_snapshot, restore_state
from repro.durability.wal import read_wal
from repro.privacy.history_store import InteractionUpload
from repro.reshard.topology import load_topology, save_topology, spec_from_json
from repro.telemetry import NULL, Telemetry
from repro.util.clock import DAY


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery pass found and did."""

    #: WAL seq the loaded snapshot covered (0 = no snapshot, cold replay).
    snapshot_seq: int
    #: WAL records replayed on top of the snapshot.
    n_replayed: int
    #: Whether any lane's final segment ended in a torn frame.
    torn_tail: bool
    #: First unused sequence number (a new journal resumes from here).
    next_seq: int


def read_mutations(directory: Path, after_seq: int) -> tuple[list[dict], bool]:
    """All replayable mutations with ``seq > after_seq``, in seq order.

    Non-final segments of a lane must read clean — a later segment only
    exists because rotation closed them, so a torn tail there is real
    corruption and raises.  Only each lane's *last* segment may be torn.
    Lanes are merged by the global sequence number, which restores the
    exact total intake order across per-shard WAL files.
    """
    mutations: list[dict] = []
    torn = False
    for _lane, segments in sorted(list_segments(directory).items()):
        for index, (_start, path) in enumerate(segments):
            final = index == len(segments) - 1
            result = read_wal(path, tolerate_torn_tail=final)
            torn = torn or result.torn
            mutations.extend(
                record for record in result.records if record["seq"] > after_seq
            )
    mutations.sort(key=lambda record: record["seq"])
    return mutations, torn


# ----------------------------------------------------------------- apply


def _commit(server, mutation: dict) -> None:
    """The acceptance commit replay: counter, nonce burn, token spend."""
    server.accepted_envelopes += 1
    nonce_hex = mutation.get("nonce")
    if nonce_hex is not None:
        nonce = bytes.fromhex(nonce_hex)
        server._nonce_buckets[server.router.shard_of_bytes(nonce)].add(nonce)
    token_hex = mutation.get("token_id")
    if token_hex is not None:
        token_id = bytes.fromhex(token_hex)
        server._redeemer._spent[server.router.shard_of_bytes(token_id)].add(token_id)


def apply_mutation(server, mutation: dict) -> None:
    """Apply one WAL record to a server's stores.

    Mirrors the accepted branch of ``receive()`` / ``post_review()`` /
    ``issue()`` without re-validating: the record's presence in the WAL
    *is* the acceptance decision.  The opinion branch re-runs the ``seq``
    rule so a logged stale re-upload (accepted envelope, skipped slot
    write) lands in the same end state — and bumps the same counter.
    Callers owe a :func:`finalize_recovery` before the next maintenance
    cycle; this function deliberately skips the engine's incremental
    bookkeeping.
    """
    kind = mutation["kind"]
    if kind == "interaction":
        upload = InteractionUpload(
            history_id=mutation["history_id"],
            entity_id=mutation["entity_id"],
            interaction_type=mutation["interaction_type"],
            event_time=mutation["event_time"],
            duration=mutation["duration"],
            travel_km=mutation["travel_km"],
        )
        shard = server.shards[server.router.shard_of(upload.history_id)]
        stored = shard.store.append(upload, arrival_time=mutation["arrival_time"])
        if not stored:
            raise RuntimeError(
                f"WAL interaction seq={mutation['seq']} for history "
                f"{upload.history_id!r} was rejected by the store on replay — "
                "the journal and the stores have diverged"
            )
        shard.store_version += 1
        shard.version += 1
        shard.dirty_entities.add(upload.entity_id)
        _commit(server, mutation)
    elif kind == "opinion":
        record = OpinionUpload(
            history_id=mutation["history_id"],
            entity_id=mutation["entity_id"],
            rating=mutation["rating"],
            seq=mutation["opinion_seq"],
        )
        shard = server.shards[server.router.shard_of(record.history_id)]
        existing = shard.opinions.get(record.history_id)
        if existing is None or record.seq > existing.seq:
            shard.opinions[record.history_id] = record
            shard.version += 1
        else:
            server.opinions_stale += 1
        _commit(server, mutation)
    elif kind == "review":
        from repro.service.server import ExplicitReview

        review = ExplicitReview(
            user_id=mutation["user_id"],
            entity_id=mutation["entity_id"],
            rating=mutation["rating"],
            time=mutation["time"],
        )
        shard = server.shards[server.router.shard_of(review.entity_id)]
        shard.reviews.setdefault(review.entity_id, []).append(review)
    elif kind == "reshard":
        _apply_reshard(server, mutation)
    elif kind == "issue":
        issuer = server.issuer
        device_id, now = mutation["device_id"], mutation["now"]
        window = issuer._window_start.get(device_id)
        if window is None or now - window >= DAY:
            issuer._window_start[device_id] = now
            issuer._issued_today[device_id] = 0
        issuer._issued_today[device_id] = (
            issuer._issued_today[device_id] + mutation["count"]
        )
    else:
        raise ValueError(f"unknown WAL mutation kind {kind!r}")


def _apply_reshard(server, mutation: dict) -> None:
    """Re-run one logged topology change, exactly once.

    The migration is deterministic given the pre-state, so replaying the
    operation reproduces the crashed process's post-reshard placement
    bit for bit.  Idempotency is by WAL sequence number: an operation
    already in ``server.reshard_history`` (pre-applied from the topology
    ledger, or shipped twice) is skipped.  After applying, the router's
    table must equal the logged ``resulting`` spec — divergence means
    the log and the code disagree about the topology, which is never
    recoverable silently.
    """
    seq = mutation["seq"]
    if any(entry["seq"] == seq for entry in server.reshard_history):
        return
    resulting = spec_from_json(mutation["resulting"])
    if mutation["op"] == "split":
        server.split_shard(mutation["shard"])
    elif mutation["op"] == "merge":
        server.merge_shards(mutation["a"], mutation["b"])
    else:
        raise ValueError(f"unknown reshard op {mutation['op']!r}")
    if server.router.spec() != resulting:
        raise RuntimeError(
            f"replayed reshard seq={seq} diverged from the logged topology — "
            "the journal and the router have diverged"
        )
    server.reshard_seq += 1
    server.reshard_history.append(
        {key: value for key, value in mutation.items() if key != "kind"}
    )


def finalize_recovery(server) -> None:
    """Rebuild the maintenance engine's derived state after a bulk load.

    Snapshot restore and WAL replay write the stores directly and skip
    the engine's incremental bookkeeping (claims, dirty sets) — rebuild
    the claim index from the opinion slots and mark every entity dirty,
    so the first post-recovery cycle recomputes everything from store
    content.  By the purity contract of
    :mod:`repro.service.incremental`, that recompute is byte-identical
    to where an uninterrupted incremental run would be.
    """
    engine = server._engine
    engine._claims.clear()
    for shard in server.shards:
        for history_id, opinion in shard.opinions.items():
            engine._claims.setdefault(opinion.entity_id, set()).add(history_id)
    for entity_id in sorted(server.catalog):
        engine.mark_dirty(entity_id)


# --------------------------------------------------------------- recover


def recover_server(
    server, directory: Path, telemetry: Telemetry = NULL
) -> RecoveryReport:
    """Restore a freshly constructed server from a durable directory.

    Loads the newest snapshot that passes its integrity seal (older ones
    are fallbacks; none at all means a cold replay from the full WAL),
    replays every WAL record past it in global sequence order, tolerates
    a torn final frame per lane, and rebuilds the engine's derived state.
    The server is then exactly where the crashed process was at its last
    acceptance commit — ready for re-deliveries and maintenance.
    """
    directory = Path(directory)
    topology = load_topology(directory)
    loaded = load_latest_snapshot(directory)
    snapshot_seq = 0
    state = None
    if loaded is not None:
        snapshot_seq, state = loaded
    # Rebuild the topology the snapshot was taken under *before* loading
    # it: restore routes every key through the server's own router, and
    # the operations covered by the snapshot may live in WAL segments
    # truncation already deleted — the ledger is their only trace.
    # Replaying them on the still-empty server is pure table surgery.
    for entry in topology:
        if entry["seq"] <= snapshot_seq:
            _apply_reshard(server, entry)
    if state is not None:
        restore_state(server, state)
    mutations, torn = read_mutations(directory, after_seq=snapshot_seq)
    for mutation in mutations:
        apply_mutation(server, mutation)
    # Catch-up: a ledger entry whose WAL record the crash cut away (the
    # record is fsynced before the ledger, so this only covers harness
    # truncation past acknowledged bytes) still applies, in order.
    for entry in topology:
        if entry["seq"] > snapshot_seq:
            _apply_reshard(server, entry)
    finalize_recovery(server)
    # A crash between the WAL append and the ledger rewrite leaves the
    # ledger behind the log; re-save so the next truncation cannot strand
    # a replayed-but-unledgered operation.
    if server.reshard_history:
        save_topology(directory, server.reshard_history)
    telemetry.inc("recovery.replayed", len(mutations))
    if torn:
        telemetry.inc("recovery.torn_tails")
    last_seq = mutations[-1]["seq"] if mutations else snapshot_seq
    return RecoveryReport(
        snapshot_seq=snapshot_seq,
        n_replayed=len(mutations),
        torn_tail=torn,
        next_seq=last_seq + 1,
    )
