"""Elastic resharding: live shard split/merge for the sharded RSP.

The package is pure orchestration around state the rest of the system
already owns:

* :mod:`repro.reshard.ops` — :class:`ReshardOp` and :func:`perform`,
  the journal-before-migrate wrapper around
  :meth:`~repro.service.server.RSPServer.split_shard` /
  :meth:`~repro.service.server.RSPServer.merge_shards`;
* :mod:`repro.reshard.autoscale` — the telemetry-driven policy that
  turns per-shard load gauges into split/merge decisions;
* :mod:`repro.reshard.schedule` — parsing of scripted
  ``EPOCH:split:SHARD`` / ``EPOCH:merge:A:B`` schedules for the epochs
  driver and the CLI.

Each applied op lands in ``server.reshard_history``, which snapshots
carry and recovery re-runs (:mod:`repro.durability.recovery`).

Every metric emitted here is DEPLOYMENT-scoped: a static deployment
reshards zero times, and resharding must stay invisible to the
aggregate-telemetry byte-identity contract (docs/SCALING.md).
"""

from repro.reshard.autoscale import Autoscaler, AutoscalePolicy
from repro.reshard.ops import ReshardOp, perform
from repro.reshard.schedule import parse_schedule

__all__ = [
    "Autoscaler",
    "AutoscalePolicy",
    "ReshardOp",
    "parse_schedule",
    "perform",
]
