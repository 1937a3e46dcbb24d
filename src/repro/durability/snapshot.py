"""Canonical snapshots of the RSP's stores, atomically persisted.

A snapshot captures the *logical* repository — histories, opinion slots,
explicit reviews, the dedup nonce table, the spent-token table, issuer
quota windows, and the intake counters — as the canonical JSON bytes of
one state object (everything sorted by its key), independent of how the
deployment partitions that state.  The state's content has one source,
:func:`_state_members`, and two encodings: :func:`render_state` writes
its canonical bytes — each history, the bulk of a snapshot, through one
template filled in by :func:`~repro.durability.codec.json_scalar`, the
rest through the canonical encoder — and :func:`capture_state` builds
the equal JSON-compatible dict straight from the live objects, sharing
their strings and numbers.  The same content captured at any shard count
is byte-identical, and a snapshot restores into any shard count:
:func:`restore_state` routes every history, opinion slot and review
through the target server's own router.

A resharded deployment also records ``reshards``, its reshard history,
under the seal; recovery re-runs it on the empty server before anything
is adopted, so the topology outlives the WAL segments that logged it.

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
snapshot on any damage (which is why the journal retains two).  A file
in the compact layout has its digest checked over the state's bytes as
they lie in the file, and its state is then decoded one member — and
one history — at a time as :func:`restore_state` consumes it.  A file
in any other layout, such as the older spaced one
(``json.dumps(seal(...), sort_keys=True)``), is parsed whole and its
digest re-derived from the parsed state, so it still loads.
"""

from __future__ import annotations

import copy
import json
import mmap
import os
import re
from collections.abc import Iterator, Mapping
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from sys import intern
from typing import Any, Callable

from repro.core.aggregation import OpinionUpload
from repro.durability.codec import (
    CorruptStateError,
    canonical_json_bytes,
    digest_hex,
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


def _history_blob(history: InteractionHistory) -> dict:
    """One history as the dict :func:`render_history`'s text parses to,
    sharing the history's strings and numbers."""
    folded = history.folded
    return {
        "entity_id": history.entity_id,
        "folded": None
        if folded is None
        else [
            folded.n,
            folded.earliest_event_time,
            folded.latest_event_time,
            folded.duration_sum,
            folded.travel_sum,
        ],
        "history_id": history.history_id,
        "records": [
            [
                (upload := stored.upload).interaction_type,
                upload.event_time,
                upload.duration,
                upload.travel_km,
                stored.arrival_time,
            ]
            for stored in history.records
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
                    # One of a few words: interned, the records share
                    # it as live intake's records do.
                    interaction_type=intern(kind),
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


def _state_members(server, wal_seq: int) -> Iterator[tuple[str, Any]]:
    """The state's members as ``(key, value)``, keys in canonical order.

    Partition-independent: every collection is flattened across shards,
    so the same content gives the same members at every shard count.
    ``histories`` is the live histories sorted by id; every other value
    is JSON-compatible, freshly built around the live strings and
    numbers, so no caller can reach a live container through it.
    """
    shards = server.shards
    issuer = server.issuer
    yield "counters", {name: getattr(server, name) for name in _COUNTERS}
    yield "histories", sorted(
        (h for shard in shards for h in shard.store.all_histories()),
        key=attrgetter("history_id"),
    )
    yield "issuer", {
        "issued_today": dict(issuer._issued_today),
        "window_start": dict(issuer._window_start),
    }
    yield "nonces", sorted(nonce.hex() for nonce in server._seen_nonces)
    yield "opinions", {
        history_id: [op.entity_id, op.rating, op.seq]
        for shard in shards
        for history_id, op in shard.opinions.items()
    }
    # Only when non-empty: static snapshot bytes stay the same at every shard count.
    if server.reshard_history:
        yield "reshards", copy.deepcopy(server.reshard_history)
    yield "reviews", {
        entity_id: [[review.user_id, review.rating, review.time] for review in posted]
        for shard in shards
        for entity_id, posted in shard.reviews.items()
    }
    yield "spent_tokens", sorted(token_id.hex() for token_id in server._redeemer._spent)
    yield "wal_seq", wal_seq


def render_state(server, wal_seq: int = 0) -> bytes:
    """The server's logical state as its canonical JSON bytes.

    ``wal_seq`` records the last journaled mutation this snapshot
    covers; recovery replays only WAL records with a greater sequence
    number.  ``reshards`` is the topology the rest was captured under.
    """
    encode = canonical_json_bytes
    parts = []
    for key, value in _state_members(server, wal_seq):
        parts.append(b"%s%s:" % (b"," if parts else b"{", encode(key)))
        if key == "histories":
            parts += b"[", ",".join(map(render_history, value)).encode(), b"]"
        else:
            parts.append(encode(value))
    parts.append(b"}")
    return b"".join(parts)


def capture_state(server, wal_seq: int = 0) -> dict:
    """The server's logical state as a JSON-compatible dict.

    Equal to the parse of :func:`render_state`, and encoded by
    ``canonical_json_bytes`` to its very bytes, but built from the live
    objects: it shares their strings and numbers instead of holding a
    parsed copy of each.
    """
    return {
        key: list(map(_history_blob, value)) if key == "histories" else value
        for key, value in _state_members(server, wal_seq)
    }


# --------------------------------------------------------------- restore


def _entries(state: Mapping) -> Iterator[tuple[str, Any]]:
    """A state's members as :meth:`LoadedSnapshot.members` yields them:
    an object as its ``(key, value)`` pairs, anything else as itself."""
    if isinstance(state, LoadedSnapshot):
        yield from state.members()
        return
    for key, value in state.items():
        yield key, value.items() if isinstance(value, dict) else value


def restore_state(
    server, state: Mapping, rerun_reshard: Callable[[dict], None] | None = None
) -> None:
    """Load a captured state — a dict, or a snapshot as
    :func:`load_latest_snapshot` returns it — into a freshly constructed
    server.

    The members are consumed one at a time, in the state's own order: a
    loaded snapshot is decoded one entry at a time, each history straight
    into the objects the store keeps, so the whole state is never held
    decoded.  Histories, opinion slots and reviews are adopted last, in
    the state's order, through the *target's* own router, so a snapshot
    taken at one shard restores into a 16-shard deployment (and vice
    versa); nonces and spent tokens load into the server-wide sets.

    When ``rerun_reshard`` is given, it is called with each reshard the
    state records, in order, before anything is adopted — recovery
    passes its replay of the operation, so the state lands in the
    topology it was captured under; without it the recorded reshards are
    ignored.  The caller still owes a :func:`finalize_recovery` pass (see
    :mod:`repro.durability.recovery`) to rebuild the maintenance engine's
    derived dirty/claim state.
    """
    from repro.service.server import ExplicitReview

    issuer = server.issuer
    tables = {"issued_today": issuer._issued_today, "window_start": issuer._window_start}
    histories = opinions = reviews = ()
    for key, value in _entries(state):
        if key == "histories":
            histories = list(map(_decode_history, value))
        elif key == "opinions":
            opinions = [
                OpinionUpload(
                    history_id=history_id, entity_id=entity_id, rating=rating, seq=seq
                )
                for history_id, (entity_id, rating, seq) in value
            ]
        elif key == "reviews":
            reviews = [
                ExplicitReview(
                    user_id=user_id, entity_id=entity_id, rating=rating, time=time
                )
                for entity_id, posted in value
                for user_id, rating, time in posted
            ]
        elif key == "nonces":
            server._seen_nonces.update(map(bytes.fromhex, value))
        elif key == "spent_tokens":
            server._redeemer._spent.update(map(bytes.fromhex, value))
        elif key == "issuer":
            for name, table in value:
                tables[name].update(table)
        elif key == "counters":
            for name, count in value:
                if hasattr(server, name):
                    setattr(server, name, count)
        elif key == "reshards" and rerun_reshard is not None:
            for entry in value:
                rerun_reshard(entry)
    route = server.router.shard_of
    shards = server.shards
    for history in histories:
        shards[route(history.history_id)].store.adopt(history)
    for opinion in opinions:
        shards[route(opinion.history_id)].opinions[opinion.history_id] = opinion
    for review in reviews:
        shards[route(review.entity_id)].reviews.setdefault(review.entity_id, []).append(
            review
        )


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


#: The head :func:`~repro.durability.codec.seal_parts` writes before the
#: state's bytes; the file then ends with one ``}``.
_COMPACT_HEAD = re.compile(
    rb'\{"digest":"([0-9a-f]{64})","format":'
    + re.escape(canonical_json_bytes(SNAPSHOT_FORMAT))
    + rb',"state":'
)
#: The C scanner behind ``json.loads``: ``scan(text, index)`` decodes the
#: value starting at ``index`` and returns it with the index just past it.
_scan = json.JSONDecoder().scan_once


def _items(text: str, index: int, cursor: list[int]) -> Iterator:
    """The entries of the array or object starting at ``text[index]`` —
    an array's values, an object's ``(key, value)`` pairs — each decoded
    as it is reached; when done, ``cursor[0]`` is the index just past it.
    ``text`` is canonical JSON, so no whitespace separates the tokens."""
    scan = _scan
    close = "]" if text[index] == "[" else "}"
    pairs = close == "}"
    index += 1
    if text[index] != close:
        while True:
            if pairs:
                key, index = scan(text, index)
                value, index = scan(text, index + 1)
                yield key, value
            else:
                value, index = scan(text, index)
                yield value
            if text[index] == close:
                break
            index += 1
    cursor[0] = index + 1


class LoadedSnapshot(Mapping):
    """The state of a compact-layout snapshot whose seal checked out,
    held as its canonical text and decoded as it is read.

    :meth:`members` streams it for :func:`restore_state`; as a mapping it
    equals the parsed state, decoding it whole on first use.
    """

    def __init__(self, text: str) -> None:
        self._text = text

    def members(self) -> Iterator[tuple[str, Any]]:
        """The members in file order as ``(key, value)``: an array as an
        iterator of its values, an object as an iterator of its
        ``(key, value)`` pairs, decoded one entry at a time; anything
        else decoded.  Entries a caller leaves unread are skipped."""
        text = self._text
        index = 1
        cursor = [0]
        while text[index] != "}":
            key, index = _scan(text, index)
            index += 1
            if text[index] in "[{":
                entries = _items(text, index, cursor)
                yield key, entries
                for _ in entries:
                    pass
                index = cursor[0]
            else:
                value, index = _scan(text, index)
                yield key, value
            if text[index] == ",":
                index += 1

    @cached_property
    def _whole(self) -> dict:
        return json.loads(self._text)

    def __getitem__(self, key: str) -> Any:
        return self._whole[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._whole)

    def __len__(self) -> int:
        return len(self._whole)


def _read_state(path: Path) -> Mapping:
    """One snapshot file's verified state.

    The file is mapped rather than read, so the state's text is its only
    copy on the heap.  In the compact layout the digest is checked over
    the state's bytes as they lie in the file, and the state comes back
    undecoded; in any other layout the file is parsed whole and its
    digest re-derived from the parsed state.
    """
    with open(path, "rb") as handle, mmap.mmap(
        handle.fileno(), 0, access=mmap.ACCESS_READ
    ) as mapped, memoryview(mapped) as view:
        head = _COMPACT_HEAD.match(mapped, 0, 128)
        if head is None:
            return unseal(json.loads(bytes(view)), SNAPSHOT_FORMAT)
        with view[head.end() : -1] as body:
            if mapped[-1:] != b"}" or body[:1] != b"{" or body[-1:] != b"}":
                raise CorruptStateError("snapshot is not a sealed state object")
            actual = digest_hex(body)
            if actual != head.group(1).decode():
                raise CorruptStateError(
                    f"snapshot digest mismatch: state hashes to {actual[:16]}… — "
                    "refusing to load"
                )
            return LoadedSnapshot(str(body, "utf-8"))


def load_latest_snapshot(directory: Path) -> tuple[int, Mapping] | None:
    """The newest snapshot that passes its integrity seal, or ``None``.

    Returns ``(seq, state)``; ``state`` compares equal to the parsed
    state dict and is what :func:`restore_state` takes.  Damaged
    candidates (unreadable or unparseable, wrong format tag, digest
    mismatch) are skipped in favour of the next-older snapshot — never
    loaded, never fatal, because the WAL retained since the older
    snapshot can replay the difference.
    """
    for seq, path in reversed(list_snapshots(directory)):
        try:
            return seq, _read_state(path)
        except (ValueError, CorruptStateError):
            continue
    return None
