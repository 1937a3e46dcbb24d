"""``repro.faults`` — deterministic fault injection for the upload pipeline.

The paper's anonymity design makes the upload path fire-and-forget *by
construction* (an acknowledgement would link an upload to its device), so
every real failure — message loss, server outage, issuer downtime, client
crash — silently erases opinions unless the pipeline is built to survive
it.  This package scripts those failures deterministically so the survival
machinery (nonce dedup, bounded retransmission, durable client
checkpoints, issuance backoff) can be tested as a grid of reproducible
scenarios instead of flaky chaos.

Only harness code (this package, :mod:`repro.orchestration`, the CLI, and
tests) may import it; the ``faults-only-in-harness`` lint rule keeps
injection out of production modules.  See ``docs/RELIABILITY.md``.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ClientCrash,
    ClockSkew,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    FaultReport,
    IssuerOutage,
    PrimaryCrash,
    ReplicaOutage,
    ServerOutage,
    Window,
    lossy_plan,
    outage_plan,
)

__all__ = [
    "ClientCrash",
    "ClockSkew",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "IssuerOutage",
    "PrimaryCrash",
    "ReplicaOutage",
    "ServerOutage",
    "Window",
    "lossy_plan",
    "outage_plan",
]
