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

Replay skips ``receive()``'s validation — a WAL record *is* an
acceptance decision already made, and the log does not retain the
envelope — but not its state transition: :func:`apply_mutation` calls
the store write, acceptance commit and quota charge live intake calls.
It is shared with log shipping: a replica applying a shipped batch is
replaying the primary's WAL.

Reshards are re-run from the snapshot's history and the WAL's
``reshard`` records, so ``server`` must be built at the deployment's
*starting* shard count.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path
from sys import intern

from repro.core.aggregation import OpinionUpload
from repro.durability.journal import list_segments
from repro.durability.snapshot import load_latest_snapshot, restore_state
from repro.durability.wal import WalReadResult, scan_wal
from repro.privacy.history_store import InteractionUpload
from repro.scale.router import spec_from_json
from repro.scale.shard import MISMATCH, STALE
from repro.telemetry import NULL, Telemetry


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


def _lane_mutations(segments, after_seq: int, tail: WalReadResult) -> Iterator[dict]:
    """One lane's mutations with ``seq > after_seq``, in seq order, each
    decoded as it is reached; ``tail.torn`` ends up saying whether the
    lane's final segment ended torn.

    A segment whose lane successor starts at or before ``after_seq + 1``
    holds only covered records (segments open at the next seq) and is not
    read.  Other non-final segments must read clean — rotation closed
    them, so a torn tail there is real corruption and raises.
    """
    for index, (_start, path) in enumerate(segments):
        final = index == len(segments) - 1
        if not final and segments[index + 1][0] <= after_seq + 1:
            continue
        for _offset, record in scan_wal(path, tail, tolerate_torn_tail=final):
            if record["seq"] > after_seq:
                yield record


def stream_mutations(
    directory: Path, after_seq: int, tails: list[WalReadResult]
) -> Iterator[dict]:
    """Every replayable mutation with ``seq > after_seq``, in seq order.

    Lanes are merged by the global sequence number, which restores the
    exact total intake order across per-shard WAL files; the merge holds
    one decoded record per lane, never the whole tail.  Each lane appends
    its tail status to ``tails``, complete once the stream is exhausted.
    """
    lanes = []
    for _lane, segments in sorted(list_segments(directory).items()):
        tail = WalReadResult()
        tails.append(tail)
        lanes.append(_lane_mutations(segments, after_seq, tail))
    return heapq.merge(*lanes, key=itemgetter("seq"))


def read_mutations(directory: Path, after_seq: int) -> tuple[list[dict], bool]:
    """:func:`stream_mutations` as a list, and whether any lane's final
    segment ended torn."""
    tails: list[WalReadResult] = []
    mutations = list(stream_mutations(directory, after_seq, tails))
    return mutations, any(tail.torn for tail in tails)


# ----------------------------------------------------------------- apply


def _decode(kind: str, mutation: dict):
    """The record a WAL mutation of ``kind`` carries."""
    if kind == "interaction":
        return InteractionUpload(
            history_id=mutation["history_id"],
            entity_id=mutation["entity_id"],
            # Interned, as the snapshot decoder does: one string per kind.
            interaction_type=intern(mutation["interaction_type"]),
            event_time=mutation["event_time"],
            duration=mutation["duration"],
            travel_km=mutation["travel_km"],
        )
    if kind == "opinion":
        return OpinionUpload(
            history_id=mutation["history_id"],
            entity_id=mutation["entity_id"],
            rating=mutation["rating"],
            seq=mutation["opinion_seq"],
        )
    if kind == "review":
        from repro.service.server import ExplicitReview

        return ExplicitReview(
            user_id=mutation["user_id"],
            entity_id=mutation["entity_id"],
            rating=mutation["rating"],
            time=mutation["time"],
        )
    raise ValueError(f"unknown WAL mutation kind {kind!r}")


def _bytes(hex_text: str | None) -> bytes | None:
    return None if hex_text is None else bytes.fromhex(hex_text)


def apply_mutation(server, mutation: dict) -> None:
    """Apply one WAL record through live intake's store write and commit.

    Nothing is re-validated; the store write re-runs the opinion ``seq``
    rule, so a logged stale re-upload lands in the same state and counter.
    Callers owe a :func:`finalize_recovery` before the next maintenance
    cycle: the engine's incremental bookkeeping is skipped.
    """
    kind = mutation["kind"]
    if kind == "reshard":
        _apply_reshard(server, mutation)
        return
    if kind == "issue":
        server.issuer.charge(mutation["device_id"], mutation["count"], mutation["now"])
        return
    record = _decode(kind, mutation)
    key = record.entity_id if kind == "review" else record.history_id
    shard = server.shards[server.router.shard_of(key)]
    outcome = shard.write(kind, record, mutation.get("arrival_time", 0.0))
    if outcome == MISMATCH:
        raise RuntimeError(
            f"WAL interaction seq={mutation['seq']} for history {record.history_id!r} "
            "was rejected by the store on replay — the journal and the stores have diverged"
        )
    if kind == "review":
        return
    if outcome == STALE:
        server.opinions_stale += 1
    server.commit_acceptance(_bytes(mutation["nonce"]), _bytes(mutation["token_id"]))


def _apply_reshard(server, mutation: dict) -> None:
    """Re-run one logged topology change, exactly once.

    The migration is deterministic given the pre-state, so replaying the
    operation reproduces the crashed process's post-reshard placement
    bit for bit.  Idempotency is by WAL sequence number: an operation
    already in ``server.reshard_history`` (pre-applied from the snapshot,
    or shipped twice) is skipped.  After applying, the router's
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
    re-runs the reshards it records, replays every WAL record past it in
    global sequence order — ``reshard`` records included — tolerates
    a torn final frame per lane, and rebuilds the engine's derived state.
    The server is then exactly where the crashed process was at its last
    acceptance commit — ready for re-deliveries and maintenance.

    Both halves stream: the snapshot is decoded one history at a time,
    and the WAL one record per lane as it is applied, so recovery holds
    little beyond the snapshot's text and the state it rebuilds.  A
    corrupt non-final segment therefore raises after the records before
    it were applied; the half-recovered server is discarded with the
    error.
    """
    directory = Path(directory)
    loaded = load_latest_snapshot(directory)
    snapshot_seq = 0
    if loaded is not None:
        snapshot_seq, state = loaded
        # Rebuild the topology the snapshot was taken under *before*
        # anything is adopted: restore routes every key through the
        # server's own router, and the operations may live in WAL
        # segments truncation already deleted.  On the still-empty
        # server this is pure table surgery.
        restore_state(server, state, rerun_reshard=partial(_apply_reshard, server))
        # The loaded snapshot is dead once restored; release it before the
        # replay rather than holding it through the whole WAL.
        del loaded, state
    tails: list[WalReadResult] = []
    n_replayed = 0
    last_seq = snapshot_seq
    for mutation in stream_mutations(directory, snapshot_seq, tails):
        apply_mutation(server, mutation)
        n_replayed += 1
        last_seq = mutation["seq"]
    finalize_recovery(server)
    torn = any(tail.torn for tail in tails)
    telemetry.inc("recovery.replayed", n_replayed)
    if torn:
        telemetry.inc("recovery.torn_tails")
    return RecoveryReport(
        snapshot_seq=snapshot_seq,
        n_replayed=n_replayed,
        torn_tail=torn,
        next_seq=last_seq + 1,
    )
