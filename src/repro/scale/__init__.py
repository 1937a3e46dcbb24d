"""Horizontal scale-out for the RSP service.

The paper's repository must absorb implicit opinions from *every* user of
a service — orders of magnitude more input than today's explicit reviews
(Section 2, Table 1) — so the RSP server shards its four stores across N
partitions keyed by a prefix of the unlinkable ``hash(Ru, e)`` record
identifier.  Its maintenance cycle (fraud profiling → history filtering
→ opinion summarization) gathers the tracked entities' histories from
every shard into one columnar frame.  This package holds the pieces: the
router, the per-shard state and the columnar kernel.

The load-bearing promise is *equivalence*: for every input sequence the
server accepts the same envelopes and its maintenance cycle produces
bit-identical reports, verdicts, and entity summaries for every shard
count.  ``tests/scale`` proves this with a golden grid and a
kernel-versus-scalar-spec test; ``docs/SCALING.md`` explains why it
holds.  The server itself is :class:`repro.service.server.RSPServer`.
"""

from repro.scale.router import ShardRouter
from repro.scale.shard import ShardState

__all__ = [
    "ShardRouter",
    "ShardState",
]
