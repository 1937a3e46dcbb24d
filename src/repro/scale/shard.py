"""Per-shard state: one partition of the RSP's record-keyed stores.

Each shard owns the slice of every store whose keys route to it: the
interaction histories and inferred opinions keyed by ``hash(Ru, e)``
record identifiers, and the explicit reviews keyed by entity.  Tables
not keyed by a record or entity id — the seen-nonce set, the spent-token
set and the maintenance engine's dirty set — are server-wide and never
split.
"""

from __future__ import annotations

from repro.core.aggregation import OpinionUpload
from repro.privacy.history_store import HistoryStore

#: :meth:`ShardState.write` outcomes other than a plain store (``None``).
STALE = "stale"
MISMATCH = "history-mismatch"


class ShardState:
    """One partition of the sharded server's stores."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.store = HistoryStore()
        #: Latest inferred opinion per anonymous history (highest ``seq``
        #: wins; ties keep the existing record — see docs/RELIABILITY.md).
        self.opinions: dict[str, OpinionUpload] = {}
        #: Explicit reviews for entities routed to this shard.
        self.reviews: dict[str, list] = {}

    def write(self, kind: str, record, arrival_time: float = 0.0) -> str | None:
        """File an accepted ``kind`` record (intake, replay and replica).

        Returns ``None`` once stored; :data:`MISMATCH` when an interaction's
        history is bound to another entity, and :data:`STALE` when an
        opinion does not beat its slot's ``seq`` — both write nothing.
        """
        if kind == "interaction":
            return None if self.store.append(record, arrival_time) else MISMATCH
        if kind == "opinion":
            existing = self.opinions.get(record.history_id)
            if existing is None or record.seq > existing.seq:
                self.opinions[record.history_id] = record
                return None
            return STALE
        self.reviews.setdefault(record.entity_id, []).append(record)
        return None
