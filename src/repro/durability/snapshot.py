"""Canonical snapshots of the RSP's stores, atomically persisted.

A snapshot captures the *logical* repository — histories, opinion slots,
explicit reviews, the dedup nonce table, the spent-token table, issuer
quota windows, and the intake counters — as the canonical JSON bytes of
one state object (everything sorted by its key), independent of how the
deployment partitions that state.  :func:`render_state` writes those
bytes directly: each history, the bulk of a snapshot, through one
template filled in by :func:`~repro.durability.codec.json_scalar`, the
rest through the canonical encoder.  :func:`capture_state` is the parse
of the same bytes.  The same content captured at any shard count is
byte-identical, and a snapshot restores into any shard count:
:func:`restore_state` routes every history, opinion slot and review
through the target server's own router.

A resharded deployment also records ``reshards``, its reshard history,
under the seal; recovery re-runs it on the empty server before restoring
the rest, so the topology outlives the WAL segments that logged it.

Atomicity protocol (the classic one):

1. serialize the sealed state (digest-stamped via the canonical codec):
   the file is ``canonical_json_bytes(seal(state))`` — the compact
   canonical encoding of the sealed blob — built around the rendered
   state bytes (:func:`~repro.durability.codec.seal_parts`), which are
   also the bytes its digest covers;
2. write it to ``<name>.tmp`` in the snapshot directory;
3. flush + ``fsync`` the tmp file — bytes are on stable storage;
4. ``os.rename`` onto the final name — atomic on POSIX, so readers see
   either the whole snapshot or none of it, never a prefix;
5. ``fsync`` the directory so the rename itself survives power loss.

Recovery trusts no snapshot it cannot verify: :func:`load_latest_snapshot`
checks each candidate's seal digest and falls back to the next-older
snapshot on any damage (which is why the journal retains two).  It
re-derives the digest from the parsed state, so the file's whitespace is
not part of the contract: snapshots written in the older spaced layout
(``json.dumps(seal(...), sort_keys=True)``) still load.
"""

from __future__ import annotations

import json
import os
import re
from operator import attrgetter
from pathlib import Path

from repro.core.aggregation import OpinionUpload
from repro.durability.codec import (
    CorruptStateError,
    canonical_json_bytes,
    json_scalar,
    seal_parts,
    unseal,
)
from repro.privacy.history_store import (
    FoldedStats,
    InteractionHistory,
    InteractionUpload,
    StoredRecord,
)

SNAPSHOT_FORMAT = "rsp-snapshot/1"
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")

#: Intake counters that must survive a restart byte-for-byte.
_COUNTERS = (
    "accepted_envelopes",
    "rejected_envelopes",
    "duplicates_suppressed",
    "opinions_stale",
    "history_mismatches",
    "dropped_by_outage",
    "rejected_attestations",
)


def snapshot_name(seq: int) -> str:
    return f"snapshot-{seq:012d}.json"


# --------------------------------------------------------------- capture


#: One stored history, keys in canonical (sorted) order; each record and
#: the folded stats are a five-value row.
_HISTORY = '{"entity_id":%s,"folded":%s,"history_id":%s,"records":[%s]}'
_ROW = "[%s,%s,%s,%s,%s]"
#: The whole state, keys in canonical order; only ``histories`` is
#: rendered here, every other value by the canonical encoder.  The slot
#: before ``reviews`` holds the optional ``"reshards":[...],`` member.
_STATE = (
    b'{"counters":%s,"histories":[%s],"issuer":%s,"nonces":%s,"opinions":%s,'
    b'%s"reviews":%s,"spent_tokens":%s,"wal_seq":%s}'
)


def render_history(history: InteractionHistory) -> str:
    """One history's canonical JSON text, as :func:`_decode_history` reads it."""
    scalar = json_scalar
    folded = history.folded
    return _HISTORY % (
        scalar(history.entity_id),
        "null"
        if folded is None
        else _ROW
        % (
            scalar(folded.n),
            scalar(folded.earliest_event_time),
            scalar(folded.latest_event_time),
            scalar(folded.duration_sum),
            scalar(folded.travel_sum),
        ),
        scalar(history.history_id),
        ",".join(
            [
                _ROW
                % (
                    scalar((upload := stored.upload).interaction_type),
                    scalar(upload.event_time),
                    scalar(upload.duration),
                    scalar(upload.travel_km),
                    scalar(stored.arrival_time),
                )
                for stored in history.records
            ]
        ),
    )


def _decode_history(blob: dict) -> InteractionHistory:
    folded = blob["folded"]
    return InteractionHistory(
        history_id=blob["history_id"],
        entity_id=blob["entity_id"],
        records=[
            StoredRecord(
                upload=InteractionUpload(
                    history_id=blob["history_id"],
                    entity_id=blob["entity_id"],
                    interaction_type=kind,
                    event_time=event_time,
                    duration=duration,
                    travel_km=travel_km,
                ),
                arrival_time=arrival_time,
            )
            for kind, event_time, duration, travel_km, arrival_time in blob["records"]
        ],
        folded=None
        if folded is None
        else FoldedStats(
            n=folded[0],
            earliest_event_time=folded[1],
            latest_event_time=folded[2],
            duration_sum=folded[3],
            travel_sum=folded[4],
        ),
    )


def render_state(server, wal_seq: int = 0) -> bytes:
    """The server's logical state as its canonical JSON bytes.

    Partition-independent: every collection is flattened across shards
    and emitted in sorted key order, so the same content produces
    identical bytes at every shard count.  ``wal_seq`` records the
    last journaled mutation this snapshot covers; recovery replays only
    WAL records with a greater sequence number.  ``reshards`` is the
    topology the rest was captured under.
    """
    shards = server.shards
    histories = sorted(
        (h for shard in shards for h in shard.store.all_histories()),
        key=attrgetter("history_id"),
    )
    opinions = {
        history_id: [op.entity_id, op.rating, op.seq]
        for shard in shards
        for history_id, op in shard.opinions.items()
    }
    reviews: dict[str, list] = {}
    for shard in shards:
        for entity_id, posted in shard.reviews.items():
            reviews[entity_id] = [
                [review.user_id, review.rating, review.time] for review in posted
            ]
    issuer = server.issuer
    encode = canonical_json_bytes
    # Only when non-empty: static snapshot bytes stay the same at every shard count.
    reshards = server.reshard_history
    return _STATE % (
        encode({name: getattr(server, name) for name in _COUNTERS}),
        ",".join(map(render_history, histories)).encode(),
        encode(
            {
                "window_start": issuer._window_start,
                "issued_today": issuer._issued_today,
            }
        ),
        encode(sorted(nonce.hex() for nonce in server._seen_nonces)),
        encode(opinions),
        b'"reshards":%s,' % encode(reshards) if reshards else b"",
        encode(reviews),
        encode(sorted(token_id.hex() for token_id in server._redeemer._spent)),
        encode(wal_seq),
    )


def capture_state(server, wal_seq: int = 0) -> dict:
    """The parse of :func:`render_state`: the state as a JSON-compatible
    dict, every mapping in sorted key order."""
    return json.loads(render_state(server, wal_seq))


# --------------------------------------------------------------- restore


def restore_state(server, state: dict) -> None:
    """Load a captured state into a freshly constructed server.

    Routing goes through the *target's* own router, so a snapshot taken
    at one shard restores into a 16-shard deployment (and vice versa)
    with every history, opinion slot and review on the shard its key
    routes to there; nonces and spent tokens load into the server-wide
    sets.  The caller still owes a :func:`finalize_recovery`
    pass (see :mod:`repro.durability.recovery`) to rebuild the
    maintenance engine's derived dirty/claim state.
    """
    from repro.service.server import ExplicitReview

    route = server.router.shard_of
    for blob in state["histories"]:
        history = _decode_history(blob)
        server.shards[route(history.history_id)].store.adopt(history)
    for history_id, (entity_id, rating, seq) in state["opinions"].items():
        server.shards[route(history_id)].opinions[history_id] = OpinionUpload(
            history_id=history_id, entity_id=entity_id, rating=rating, seq=seq
        )
    for entity_id, posted in state["reviews"].items():
        server.shards[route(entity_id)].reviews.setdefault(entity_id, []).extend(
            ExplicitReview(
                user_id=user_id, entity_id=entity_id, rating=rating, time=time
            )
            for user_id, rating, time in posted
        )
    server._seen_nonces.update(map(bytes.fromhex, state["nonces"]))
    server._redeemer._spent.update(map(bytes.fromhex, state["spent_tokens"]))
    issuer = server.issuer
    issuer._window_start.update(state["issuer"]["window_start"])
    issuer._issued_today.update(state["issuer"]["issued_today"])
    for name, value in state["counters"].items():
        if hasattr(server, name):
            setattr(server, name, value)


# ----------------------------------------------------------------- files


def write_snapshot(directory: Path, seq: int, state: bytes) -> Path:
    """Durably persist ``state``, canonical state bytes such as
    :func:`render_state` returns, as the snapshot covering WAL seq ``seq``.

    Follows the fsync-then-rename protocol from the module docstring; the
    returned path exists and is durable (or an exception was raised).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / snapshot_name(seq)
    tmp = directory / (snapshot_name(seq) + ".tmp")
    with open(tmp, "wb") as handle:
        # The parts in turn, not joined: a joined copy of a large state
        # would double the write's peak memory for no gain.
        for part in seal_parts(state, SNAPSHOT_FORMAT):
            handle.write(part)
        handle.flush()
        os.fsync(handle.fileno())
    os.rename(tmp, final)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return final


def list_snapshots(directory: Path) -> list[tuple[int, Path]]:
    """All snapshot files present, as ``(seq, path)`` sorted ascending."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        match = _SNAPSHOT_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def load_latest_snapshot(directory: Path) -> tuple[int, dict] | None:
    """The newest snapshot that passes its integrity seal, or ``None``.

    Damaged candidates (unparseable JSON, wrong format tag, digest
    mismatch) are skipped in favour of the next-older snapshot — never
    loaded, never fatal, because the WAL retained since the older
    snapshot can replay the difference.
    """
    for seq, path in reversed(list_snapshots(directory)):
        try:
            blob = json.loads(path.read_bytes())
            return seq, unseal(blob, SNAPSHOT_FORMAT)
        except (ValueError, CorruptStateError):
            continue
    return None
