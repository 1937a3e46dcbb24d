"""Horizontal scale-out for the RSP service.

The paper's repository must absorb implicit opinions from *every* user of
a service — orders of magnitude more input than today's explicit reviews
(Section 2, Table 1) — so the RSP server shards its four stores across N
partitions keyed by a prefix of the unlinkable ``hash(Ru, e)`` record
identifier and runs the maintenance cycle (fraud profiling → history
filtering → opinion summarization) shard-parallel across a
``concurrent.futures`` worker pool.  This package holds the pieces: the
router, the per-shard state, the columnar kernel, the merge algebra and
the worker pool.

The load-bearing promise is *equivalence*: for every input sequence the
server accepts the same envelopes and its maintenance cycle produces
bit-identical reports, verdicts, and entity summaries for every shard
count and worker count.  ``tests/scale`` proves this differentially and
property-wise; ``docs/SCALING.md`` explains why it holds.

``ShardedRSPServer`` is the server under its scale-out name.  It is
resolved on first access because the server itself imports this package.
"""

from repro.scale.merge import merge_counts, merge_folded, merge_histories, merge_pools
from repro.scale.parallel import MaintenancePool
from repro.scale.router import ShardRouter
from repro.scale.shard import ShardState

__all__ = [
    "MaintenancePool",
    "ShardRouter",
    "ShardState",
    "ShardedRSPServer",
    "merge_counts",
    "merge_folded",
    "merge_histories",
    "merge_pools",
]


def __getattr__(name: str):
    if name == "ShardedRSPServer":
        from repro.service.server import RSPServer

        return RSPServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
