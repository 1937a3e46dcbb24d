"""Per-shard state: one partition of the RSP's four stores.

Each shard owns the slice of every store whose keys route to it: the
interaction histories and inferred opinions keyed by ``hash(Ru, e)``
record identifiers, and the explicit reviews keyed by entity.  The spent
token and seen-nonce tables are partitioned separately (by their own
key bytes) at the server, because their keys are not record identifiers.

Shards also own a derived RNG seed.  The maintenance cycle is currently
fully deterministic and draws nothing, but any stochastic extension
(sampled audits, randomized response noise) must draw from
``ShardState.rng`` so that per-shard streams stay independent of shard
count and of each other — the same label-derivation discipline as
:mod:`repro.util.rng` everywhere else.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregation import OpinionUpload
from repro.privacy.history_store import HistoryStore
from repro.util.rng import derive_seed, make_rng


class ShardState:
    """One partition of the sharded server's stores."""

    def __init__(self, index: int, key_seed: int) -> None:
        self.index = index
        #: Label-derived, so adding shard 9 never perturbs shards 0-8.
        self.seed = derive_seed(key_seed, f"scale/shard[{index}]")
        self.store = HistoryStore()
        #: Latest inferred opinion per anonymous history (highest ``seq``
        #: wins; ties keep the existing record — see docs/RELIABILITY.md).
        self.opinions: dict[str, OpinionUpload] = {}
        #: Explicit reviews for entities routed to this shard.
        self.reviews: dict[str, list] = {}
        #: Entities whose state on this shard changed since the last
        #: maintenance cycle; drained into the incremental engine.
        self.dirty_entities: set[str] = set()

    def rng(self, label: str) -> np.random.Generator:
        """This shard's independent random stream for ``label``."""
        return make_rng(self.seed, label)

    def renumber(self, index: int, key_seed: int) -> None:
        """Take over slot ``index`` after a merge removed a lower shard.

        Only the identity changes: the seed is re-derived for the new
        label (per-shard streams stay a pure function of the slot), and
        the stores and dirty set move untouched.
        """
        self.index = index
        self.seed = derive_seed(key_seed, f"scale/shard[{index}]")
