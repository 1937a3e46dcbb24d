"""The durable journal: lane-partitioned WAL segments plus snapshots.

:class:`DurableJournal` is the object the servers see through their
duck-typed ``journal`` attribute (the same pattern as ``fault_hook`` and
``telemetry``: production code calls a narrow method surface and never
imports this package).  It owns a directory of:

* ``wal-<lane>-<startseq>.log`` — WAL segments, one active per lane.
  The server passes ``n_lanes=router.n_shards`` and
  ``lane_of=router.shard_of`` so each shard's mutations land in their
  own per-shard WAL file (parallel-friendly I/O), while the **global**
  sequence number stays totally ordered across lanes — replay merges
  lanes by ``seq`` and reproduces exact intake order;
* ``snapshot-<seq>.json`` — sealed snapshots (see
  :mod:`repro.durability.snapshot`).

Commit protocol: the servers call ``log_*`` *after* the store mutation
succeeded but *before* the acceptance commit (accept counter + nonce
burn) — the ``durability-fsync-before-ack`` lint rule holds that line.
Every append flushes to the OS before returning; ``fsync`` runs per
record under ``sync_policy="always"`` or at batch boundaries (the
server's ``receive_all`` calls :meth:`sync_to_disk`) under the default
``"batch"`` group-commit policy.  A journal failure propagates out of
intake uncaught on purpose: the process must die rather than acknowledge
state its log never recorded.

Segment lifecycle: a journal always *starts new segments* on open — it
never appends after a possibly-torn tail — and rotates every lane when a
snapshot commits.  Truncation keeps the two newest snapshots and every
segment needed to replay forward from the older one; everything earlier
is deleted.
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path

from repro.durability.snapshot import (
    capture_state,
    list_snapshots,
    write_snapshot,
)
from repro.durability.wal import WriteAheadLog, read_wal
from repro.telemetry import NULL, Telemetry

_SEGMENT_RE = re.compile(r"^wal-(\d{2})-(\d{12})\.log$")


def segment_name(lane: int, start_seq: int) -> str:
    return f"wal-{lane:02d}-{start_seq:012d}.log"


def list_segments(directory: Path) -> dict[int, list[tuple[int, Path]]]:
    """Segments on disk grouped by lane, each ``(start_seq, path)`` sorted."""
    directory = Path(directory)
    lanes: dict[int, list[tuple[int, Path]]] = {}
    if not directory.is_dir():
        return lanes
    for path in directory.iterdir():
        match = _SEGMENT_RE.match(path.name)
        if match:
            lanes.setdefault(int(match.group(1)), []).append(
                (int(match.group(2)), path)
            )
    for segments in lanes.values():
        segments.sort()
    return lanes


class DurableJournal:
    """Write-ahead journaling + snapshotting for one server process."""

    def __init__(
        self,
        directory: Path,
        n_lanes: int = 1,
        lane_of=None,
        telemetry: Telemetry = NULL,
        sync_policy: str = "batch",
        keep_snapshots: int = 2,
    ) -> None:
        if n_lanes < 1:
            raise ValueError("need at least one WAL lane")
        if sync_policy not in ("batch", "always"):
            raise ValueError("sync_policy must be 'batch' or 'always'")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n_lanes = n_lanes
        #: Routing-key -> lane mapper (the sharded router's ``shard_of``);
        #: ``None`` puts everything in lane 0.
        self._lane_of = lane_of
        self.telemetry = telemetry
        self.sync_policy = sync_policy
        self.keep_snapshots = keep_snapshots
        #: Mutations since the last :meth:`~ReplicatedRSPServer.ship`,
        #: retained only when a replication pair sets this True.
        self.keep_outbox = False
        self.outbox: list[dict] = []
        self.closed = False
        self._repair_torn_tails()
        self.next_seq = self._scan_next_seq()
        self._lanes: list[WriteAheadLog] = [
            WriteAheadLog(self.directory / segment_name(lane, self.next_seq))
            for lane in range(n_lanes)
        ]

    def _repair_torn_tails(self) -> None:
        """Trim each lane's final segment to its valid prefix.

        A torn tail is legal only while the segment is physically last in
        its lane — and this journal is about to open a *new* segment after
        it, after which recovery reads old segments strictly.  Trimming on
        reopen seals the old segment: the discarded bytes were, by the
        commit protocol, never acknowledged.
        """
        for segments in list_segments(self.directory).values():
            _start, path = segments[-1]
            result = read_wal(path, tolerate_torn_tail=True)
            if result.torn:
                with open(path, "r+b") as handle:
                    handle.truncate(result.valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())

    def _scan_next_seq(self) -> int:
        """1 + the highest sequence number any durable artifact records."""
        high = 0
        for seq, _path in list_snapshots(self.directory):
            high = max(high, seq)
        for segments in list_segments(self.directory).values():
            for _start, path in segments:
                result = read_wal(path, tolerate_torn_tail=True)
                for record in result.records:
                    high = max(high, record["seq"])
        return high + 1

    # ------------------------------------------------------------ appends

    def _lane_for(self, key: str | None) -> int:
        if key is None or self._lane_of is None:
            return 0
        return self._lane_of(key)

    def _append(self, key: str | None, payload: dict) -> int:
        if self.closed:
            raise RuntimeError("journal is closed; refusing to log")
        payload["seq"] = self.next_seq
        self.next_seq += 1
        lane = self._lane_for(key)
        n_bytes = self._lanes[lane].append_record(
            payload, sync=self.sync_policy == "always"
        )
        self._last_lane = lane
        if self.keep_outbox:
            self.outbox.append(payload)
        self.telemetry.inc("wal.appends")
        self.telemetry.inc("wal.bytes", n_bytes)
        return payload["seq"]

    def log_interaction(self, record, arrival_time: float, nonce, token_id) -> int:
        """One accepted interaction upload, before its acceptance commits."""
        return self._append(
            record.history_id,
            {
                "kind": "interaction",
                "history_id": record.history_id,
                "entity_id": record.entity_id,
                "interaction_type": record.interaction_type,
                "event_time": record.event_time,
                "duration": record.duration,
                "travel_km": record.travel_km,
                "arrival_time": arrival_time,
                "nonce": None if nonce is None else nonce.hex(),
                "token_id": None if token_id is None else token_id.hex(),
            },
        )

    def log_opinion(self, record, nonce, token_id) -> int:
        """One accepted opinion upload (stale re-uploads included: their
        envelope was accepted, so their nonce burn must be journaled even
        though replay will skip the slot write by the same ``seq`` rule)."""
        return self._append(
            record.history_id,
            {
                "kind": "opinion",
                "history_id": record.history_id,
                "entity_id": record.entity_id,
                "rating": record.rating,
                "opinion_seq": record.seq,
                "nonce": None if nonce is None else nonce.hex(),
                "token_id": None if token_id is None else token_id.hex(),
            },
        )

    def log_review(self, user_id: str, entity_id: str, rating: int, time: float) -> int:
        """One accepted explicit review, before it lands in the store."""
        return self._append(
            entity_id,
            {
                "kind": "review",
                # The WAL stores exactly what the attributed review store
                # stores — this is the legacy path's own durable record,
                # not a new identity flow.
                "user_id": user_id,  # repro: allow[priv-server-identity]
                "entity_id": entity_id,
                "rating": rating,
                "time": time,
            },
        )

    def log_issue(self, device_id: str, count: int, now: float) -> int:
        """One successful token issuance (the quota-window tick)."""
        return self._append(
            None,
            {
                "kind": "issue",
                # Issuance is the attributed side by design (quotas are
                # per device); the journal records what the issuer's own
                # window table records, nothing more.
                "device_id": device_id,  # repro: allow[priv-server-identity]
                "count": count,
                "now": now,
            },
        )

    def log_reshard(self, op: dict) -> int:
        """One topology change (split/merge), *before* any state moves.

        Journal-before-migrate: recovery that finds this record replays
        the migration itself (the operation is deterministic given the
        pre-state), so a crash at any point after the append lands in the
        post-reshard topology with every key exactly once.  The record
        carries the full resulting prefix table, which is what the replay
        guard compares against.  Lane 0, like ``log_issue``: the record
        concerns every lane, and lane assignment itself is about to
        change.
        """
        return self._append(None, {"kind": "reshard", **op})

    def remap_lanes(self, n_lanes: int, lane_of) -> None:
        """Re-partition WAL lanes after a reshard.

        Syncs and closes every open segment, then opens one fresh segment
        per *new* lane at the current sequence number — the same
        rotate-on-boundary discipline as :meth:`take_snapshot`, so no
        lane ever appends after another mapping's records.  Replay is
        unaffected: it merges all lanes by the global ``seq``.
        """
        if self.closed:
            raise RuntimeError("journal is closed; refusing to remap lanes")
        if n_lanes < 1:
            raise ValueError("need at least one WAL lane")
        self.sync_to_disk()
        for lane in self._lanes:
            lane.close()
        self.n_lanes = n_lanes
        self._lane_of = lane_of
        self._lanes = [
            WriteAheadLog(self.directory / segment_name(lane, self.next_seq))
            for lane in range(n_lanes)
        ]

    # ----------------------------------------------------- durability edges

    def sync_to_disk(self) -> None:
        """Group-commit point: fsync every lane's active segment."""
        for lane in self._lanes:
            lane.sync_to_disk()

    def take_snapshot(self, server) -> Path:
        """Snapshot ``server``, rotate every lane, truncate old segments."""
        if self.closed:
            raise RuntimeError("journal is closed; refusing to snapshot")
        # Real (not simulated) duration: snapshot cost is an operational
        # observability quantity, never part of any deterministic report.
        started = time.perf_counter()  # repro: allow[det-wall-clock]
        self.sync_to_disk()
        covered = self.next_seq - 1
        path = write_snapshot(self.directory, covered, capture_state(server, covered))
        for lane in self._lanes:
            lane.close()
        self._lanes = [
            WriteAheadLog(self.directory / segment_name(lane, self.next_seq))
            for lane in range(self.n_lanes)
        ]
        self._truncate(covered)
        self.telemetry.inc("snapshot.count")
        self.telemetry.set_gauge(
            "snapshot.duration",
            time.perf_counter() - started,  # repro: allow[det-wall-clock]
        )
        return path

    def _truncate(self, newest_seq: int) -> None:
        """Drop artifacts no retained snapshot needs for replay.

        Retention: the ``keep_snapshots`` newest snapshots, plus every
        segment with records *after* the oldest retained snapshot (the
        fallback replay source if newer snapshots turn out corrupt).
        Segments rotate exactly at snapshot points, so a segment starting
        at or before the oldest retained seq holds only covered records.
        """
        snapshots = list_snapshots(self.directory)
        retained = snapshots[-self.keep_snapshots :]
        for _seq, path in snapshots[: -self.keep_snapshots]:
            path.unlink()
        if not retained:
            return
        oldest_retained = retained[0][0]
        for segments in list_segments(self.directory).values():
            for start_seq, path in segments:
                if start_seq <= oldest_retained and start_seq < self.next_seq:
                    path.unlink()

    def close(self) -> None:
        for lane in self._lanes:
            lane.close()
        self.closed = True

    def crash(self, torn_bytes: int = 0) -> None:
        """Simulate the process dying mid-append (harness-only).

        Closes every lane as a kill would, then — when ``torn_bytes`` is
        positive — appends that much garbage to the most recently written
        lane's segment, modelling a frame whose write the crash cut
        short.  Recovery must absorb exactly this shape of damage.
        """
        last = getattr(self, "_last_lane", 0)
        self.close()
        if torn_bytes > 0:
            with open(self._lanes[last].path, "ab") as handle:
                handle.write(b"\x7f" * torn_bytes)


def attach_journal(server, journal: DurableJournal) -> None:
    """Install ``journal`` on a server and its token issuer."""
    server.journal = journal
    server.issuer.journal = journal
