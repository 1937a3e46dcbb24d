"""Server-side, update-only, unlinkable interaction-history storage.

Section 4.2's storage design, implemented:

* every (user, entity) pair's history lives under an opaque identifier
  ``hash(Ru, e)`` — the server cannot tell which histories share a user;
* the public API is **update-only**: there is deliberately no method that
  retrieves a history by identifier, so even an attacker who learns a
  user's ``Ru`` can corrupt nothing and read nothing (appends require a
  valid rate-limited token, and reads do not exist);
* aggregation is server-internal and per-entity: the recommendation
  summaries and fraud profiles iterate *within* an entity's histories,
  which is exactly the access pattern the paper's design permits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

from repro.privacy.tokens import TokenRedeemer, UploadToken


@dataclass(frozen=True, slots=True)
class InteractionUpload:
    """One anonymously uploaded interaction record.

    Carries the features Section 4.2 enumerates (duration, travel distance,
    and — via consecutive records — time since the last interaction).
    ``event_time`` is quantized client-side (see
    :mod:`repro.privacy.uploads`) so it reveals coarse scheduling only.
    """

    history_id: str
    entity_id: str
    interaction_type: str  # "visit" | "call"
    event_time: float
    duration: float
    travel_km: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so the sign check alone would let it
        # through; no NaN or infinity may reach a store, a WAL frame or a
        # group signature.
        if not all(map(isfinite, (self.event_time, self.duration, self.travel_km))):
            raise ValueError("event time, duration and travel must be finite")
        if self.duration < 0 or self.travel_km < 0:
            raise ValueError("duration and travel must be non-negative")


@dataclass(slots=True)
class StoredRecord:
    """An accepted upload plus the server's own arrival timestamp."""

    upload: InteractionUpload
    arrival_time: float


@dataclass(slots=True)
class FoldedStats:
    """Streaming summary of records compacted out of a history.

    Histories for rarely used providers span years (Section 4.2); storing
    every record forever is neither necessary nor aligned with
    data-minimization.  When a history exceeds the store's per-history
    record bound, its oldest records are folded into these running
    aggregates — enough to preserve the interaction *count* (what
    influence weighting and the Figure 3 histograms need) and coarse
    temporal extent, while the raw recent window keeps feeding gap/duration
    statistics.
    """

    n: int = 0
    earliest_event_time: float = float("inf")
    latest_event_time: float = float("-inf")
    duration_sum: float = 0.0
    travel_sum: float = 0.0

    def fold(self, record: "StoredRecord") -> None:
        self.n += 1
        self.earliest_event_time = min(self.earliest_event_time, record.upload.event_time)
        self.latest_event_time = max(self.latest_event_time, record.upload.event_time)
        self.duration_sum += record.upload.duration
        self.travel_sum += record.upload.travel_km


@dataclass(slots=True)
class InteractionHistory:
    """The record sequence stored under one ``hash(Ru, e)`` identifier.

    ``records`` holds the raw recent window; ``folded`` summarizes any
    older records compacted away.  Gap/duration/travel statistics come
    from the raw window only (documented behaviour the fraud profiles
    rely on); counts and temporal extent include the folded past.
    """

    history_id: str
    entity_id: str
    records: list[StoredRecord] = field(default_factory=list)
    folded: FoldedStats | None = None

    @property
    def n_interactions(self) -> int:
        return len(self.records) + (self.folded.n if self.folded else 0)

    @property
    def n_raw_records(self) -> int:
        return len(self.records)

    @property
    def first_event_time(self) -> float:
        candidates = [r.upload.event_time for r in self.records]
        if self.folded and self.folded.n:
            candidates.append(self.folded.earliest_event_time)
        return min(candidates) if candidates else float("nan")

    def event_times(self) -> list[float]:
        return [record.upload.event_time for record in self.records]

    def gaps(self) -> list[float]:
        """Times between consecutive interactions — the fraud-profile feature."""
        times = sorted(self.event_times())
        return [b - a for a, b in zip(times, times[1:])]

    def durations(self) -> list[float]:
        return [record.upload.duration for record in self.records]

    def travel_kms(self) -> list[float]:
        return [record.upload.travel_km for record in self.records]


class HistoryStore:
    """The RSP's anonymous history database.

    ``max_records_per_history`` bounds per-history raw storage: when a
    history grows past the bound its oldest records are folded into
    :class:`FoldedStats`.  ``None`` keeps everything (the default; the A8
    benchmark quantifies the trade-off).
    """

    def __init__(
        self,
        redeemer: TokenRedeemer | None = None,
        max_records_per_history: int | None = None,
    ) -> None:
        if max_records_per_history is not None and max_records_per_history < 2:
            raise ValueError("max_records_per_history must be >= 2 (or None)")
        self._histories: dict[str, InteractionHistory] = {}
        self._by_entity: dict[str, list[InteractionHistory]] = {}
        self._redeemer = redeemer
        self.max_records_per_history = max_records_per_history
        self.rejected_uploads = 0
        self.folded_records = 0

    def append(
        self,
        upload: InteractionUpload,
        arrival_time: float,
        token: UploadToken | None = None,
    ) -> bool:
        """Append a record to the history named by ``upload.history_id``.

        When the store was built with a token redeemer, uploads without a
        valid, unspent token are rejected.  Returns True if stored.
        """
        if self._redeemer is not None:
            if token is None or not self._redeemer.redeem(token):
                self.rejected_uploads += 1
                return False
        history = self._histories.get(upload.history_id)
        if history is None:
            history = InteractionHistory(
                history_id=upload.history_id, entity_id=upload.entity_id
            )
            self._histories[upload.history_id] = history
            self._by_entity.setdefault(upload.entity_id, []).append(history)
        elif history.entity_id != upload.entity_id:
            # An identifier is bound to one entity at creation; a mismatch
            # is either a client bug or a corruption attempt.
            self.rejected_uploads += 1
            return False
        history.records.append(StoredRecord(upload=upload, arrival_time=arrival_time))
        if (
            self.max_records_per_history is not None
            and len(history.records) > self.max_records_per_history
        ):
            # Fold the oldest record (by event time) into the summary.
            oldest_index = min(
                range(len(history.records)),
                key=lambda i: history.records[i].upload.event_time,
            )
            oldest = history.records.pop(oldest_index)
            if history.folded is None:
                history.folded = FoldedStats()
            history.folded.fold(oldest)
            self.folded_records += 1
        return True

    def adopt(self, history: InteractionHistory) -> None:
        """Register a fully built history during snapshot restore.

        This is the recovery path's bulk-load door, not an upload path:
        it performs no token check and accepts a complete
        :class:`InteractionHistory` (records, folded stats and all)
        exactly as a snapshot serialized it.  The identifier must be
        fresh — recovery restores into an empty store, so a collision
        means the snapshot or the restore routing is broken, and loading
        on top of it would silently merge two users' histories.
        """
        if history.history_id in self._histories:
            raise ValueError(
                f"history {history.history_id!r} already present; "
                "adopt() only loads into a fresh store"
            )
        self._histories[history.history_id] = history
        self._by_entity.setdefault(history.entity_id, []).append(history)

    def release(self, history_id: str) -> InteractionHistory:
        """Detach and return one history, for resharding migration.

        The inverse of :meth:`adopt`: the history leaves this store whole
        (records, folded stats and all) so the destination shard adopts
        exactly the state this shard held.  Releasing an unknown id is a
        routing bug, not a soft miss, hence the raise.
        """
        history = self._histories.pop(history_id, None)
        if history is None:
            raise KeyError(f"history {history_id!r} not in this store")
        bucket = self._by_entity[history.entity_id]
        bucket.remove(history)
        if not bucket:
            del self._by_entity[history.entity_id]
        return history

    # -- server-internal aggregation access ------------------------------
    #
    # There is intentionally NO ``get(history_id)`` method: the service
    # never needs one (aggregation is per-entity) and its absence is what
    # makes a leaked Ru useless for reading a user's past.

    def histories_for_entity(self, entity_id: str) -> list[InteractionHistory]:
        """All anonymous histories attached to one entity."""
        return list(self._by_entity.get(entity_id, []))

    def all_histories(self) -> list[InteractionHistory]:
        """Every history — used by fraud profiling, which merges across
        entities of the same kind without ever naming users."""
        return list(self._histories.values())

    @property
    def n_histories(self) -> int:
        return len(self._histories)

    @property
    def n_records(self) -> int:
        """Total interactions recorded, including folded ones."""
        return sum(h.n_interactions for h in self._histories.values())

    @property
    def n_raw_records(self) -> int:
        """Raw records currently held in memory (excludes folded)."""
        return sum(h.n_raw_records for h in self._histories.values())

    def entity_ids(self) -> list[str]:
        return list(self._by_entity)
