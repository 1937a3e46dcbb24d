"""Reshard operations: journal-before-migrate around the server's moves.

:func:`perform` is the only sanctioned way to reshard a *live* server.
The order of its steps is the crash-safety argument:

1. **journal** the operation (kind ``reshard``, with the full resulting
   prefix table) and fsync — once this record is durable, recovery will
   deterministically re-run the migration, so a crash at *any* later
   point lands in the post-reshard topology with every key exactly once;
2. **migrate** via :meth:`~repro.service.server.RSPServer.split_shard`
   / :meth:`~repro.service.server.RSPServer.merge_shards` (which
   also remaps the journal's WAL lanes to the new routing);
3. **record**: append the entry to ``server.reshard_history``, which
   every later snapshot carries (:mod:`repro.durability.snapshot`), so
   the operation outlives the truncation of its WAL segment;
4. **telemetry**, all DEPLOYMENT-scoped — resharding must never touch
   the aggregate digest a static deployment is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scale.router import spec_to_json
from repro.telemetry import DEPLOYMENT
from repro.telemetry.catalog import RESHARD_MOVED_BUCKETS


@dataclass(frozen=True)
class ReshardOp:
    """One topology change: ``split(shard)`` or ``merge(a, b)``."""

    kind: str
    shard: int = 0
    a: int = 0
    b: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("split", "merge"):
            raise ValueError(f"unknown reshard op kind {self.kind!r}")
        if self.kind == "merge" and self.a == self.b:
            raise ValueError("cannot merge a shard with itself")

    @classmethod
    def split(cls, shard: int) -> "ReshardOp":
        return cls(kind="split", shard=int(shard))

    @classmethod
    def merge(cls, a: int, b: int) -> "ReshardOp":
        return cls(kind="merge", a=int(a), b=int(b))

    def describe(self) -> str:
        if self.kind == "split":
            return f"split:{self.shard}"
        return f"merge:{self.a}:{self.b}"


def perform(server, op: ReshardOp) -> dict[str, int]:
    """Apply ``op`` to a live sharded server; returns per-kind moved counts.

    See the module docstring for the step ordering and why it is safe.
    ``server`` is duck-typed (the same pattern as ``journal`` and
    ``telemetry`` everywhere else): anything with ``router``,
    ``split_shard``/``merge_shards``, ``reshard_history`` and optionally
    a ``journal`` qualifies — which is how recovery and the replica
    apply the identical records without importing this module.
    """
    if op.kind == "split":
        resulting = server.router.split(op.shard).spec()
        entry = {"op": "split", "shard": op.shard}
    else:
        resulting = server.router.merge(op.a, op.b).spec()
        entry = {"op": "merge", "a": op.a, "b": op.b}
    entry["resulting"] = spec_to_json(resulting)
    if server.journal is not None:
        entry["seq"] = server.journal.log_reshard(entry)
        # Journal-before-migrate: the record must be durable before any
        # state moves, or a crash mid-migration could lose the topology.
        server.journal.sync_to_disk()
    else:
        entry["seq"] = 0
    if op.kind == "split":
        moved = server.split_shard(op.shard)
    else:
        moved = server.merge_shards(op.a, op.b)
    server.reshard_history.append(entry)
    telemetry = server.telemetry
    telemetry.inc(
        "rsp.reshard.splits" if op.kind == "split" else "rsp.reshard.merges",
        scope=DEPLOYMENT,
    )
    for state_kind in sorted(moved):
        if moved[state_kind]:
            telemetry.inc(
                "rsp.reshard.keys_moved",
                moved[state_kind],
                scope=DEPLOYMENT,
                kind=state_kind,
            )
    telemetry.observe(
        "rsp.reshard.moved",
        sum(moved.values()),
        buckets=RESHARD_MOVED_BUCKETS,
        scope=DEPLOYMENT,
    )
    telemetry.set_gauge(
        "rsp.reshard.shards", server.router.n_shards, scope=DEPLOYMENT
    )
    return moved
