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
