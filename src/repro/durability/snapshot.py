"""Canonical snapshots of the RSP's stores, atomically persisted.

A snapshot captures the *logical* repository — histories, opinion slots,
explicit reviews, the dedup nonce table, the spent-token table, issuer
quota windows, and the intake counters — as one JSON-compatible dict in
canonical order (everything sorted by its key), independent of how the
deployment partitions that state.  The same content captured at any shard count is byte-identical, and a
snapshot restores into any shard count: :func:`restore_state` re-routes
every piece through the target server's own router.

Atomicity protocol (the classic one):

1. serialize the sealed state (digest-stamped via the canonical codec);
2. write it to ``<name>.tmp`` in the snapshot directory;
3. flush + ``fsync`` the tmp file — bytes are on stable storage;
4. ``os.rename`` onto the final name — atomic on POSIX, so readers see
   either the whole snapshot or none of it, never a prefix;
5. ``fsync`` the directory so the rename itself survives power loss.

Recovery trusts no snapshot it cannot verify: :func:`load_latest_snapshot`
checks each candidate's seal digest and falls back to the next-older
snapshot on any damage (which is why the journal retains two).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.core.aggregation import OpinionUpload
from repro.durability.codec import CorruptStateError, seal, unseal
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
    "pool_fallbacks",
)


def snapshot_name(seq: int) -> str:
    return f"snapshot-{seq:012d}.json"


# --------------------------------------------------------------- capture


def _encode_history(history: InteractionHistory) -> dict:
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


def capture_state(server, wal_seq: int = 0) -> dict:
    """The server's logical state as one canonical JSON-compatible dict.

    Partition-independent: every collection is flattened across shards
    and emitted in sorted key order, so the same content produces
    identical bytes at every shard count.  ``wal_seq`` records the
    last journaled mutation this snapshot covers; recovery replays only
    WAL records with a greater sequence number.
    """
    shards = server.shards
    histories = sorted(
        (h for shard in shards for h in shard.store.all_histories()),
        key=lambda h: h.history_id,
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
    counters = {name: getattr(server, name) for name in _COUNTERS}
    return {
        "wal_seq": wal_seq,
        "histories": [_encode_history(h) for h in histories],
        "opinions": {k: opinions[k] for k in sorted(opinions)},
        "reviews": {k: reviews[k] for k in sorted(reviews)},
        "nonces": sorted(n.hex() for nonces in server._nonce_buckets for n in nonces),
        "spent_tokens": sorted(t.hex() for spent in server._redeemer._spent for t in spent),
        "issuer": {
            "window_start": {k: issuer._window_start[k] for k in sorted(issuer._window_start)},
            "issued_today": {k: issuer._issued_today[k] for k in sorted(issuer._issued_today)},
        },
        "counters": counters,
    }


# --------------------------------------------------------------- restore


def restore_state(server, state: dict) -> None:
    """Load a captured state into a freshly constructed server.

    Routing goes through the *target's* own router, so a snapshot taken
    at one shard restores into a 16-shard deployment (and vice versa)
    with every nonce, token, history, and opinion in the bucket its key
    routes to there.  The caller still owes a :func:`finalize_recovery`
    pass (see :mod:`repro.durability.recovery`) to rebuild the
    maintenance engine's derived dirty/claim state.
    """
    from repro.service.server import ExplicitReview

    route = server.router.shard_of
    route_bytes = server.router.shard_of_bytes
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
    for nonce_hex in state["nonces"]:
        nonce = bytes.fromhex(nonce_hex)
        server._nonce_buckets[route_bytes(nonce)].add(nonce)
    for token_hex in state["spent_tokens"]:
        token_id = bytes.fromhex(token_hex)
        server._redeemer._spent[route_bytes(token_id)].add(token_id)
    issuer = server.issuer
    issuer._window_start.update(state["issuer"]["window_start"])
    issuer._issued_today.update(state["issuer"]["issued_today"])
    for name, value in state["counters"].items():
        if hasattr(server, name):
            setattr(server, name, value)


# ----------------------------------------------------------------- files


def write_snapshot(directory: Path, seq: int, state: dict) -> Path:
    """Durably persist ``state`` as the snapshot covering WAL seq ``seq``.

    Follows the fsync-then-rename protocol from the module docstring; the
    returned path exists and is durable (or an exception was raised).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / snapshot_name(seq)
    tmp = directory / (snapshot_name(seq) + ".tmp")
    payload = json.dumps(seal(state, SNAPSHOT_FORMAT), sort_keys=True).encode()
    with open(tmp, "wb") as handle:
        handle.write(payload)
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
