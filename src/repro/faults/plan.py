"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a pure-data script of everything that goes wrong
during a simulated deployment: network loss/delay/duplication windows,
server and token-issuer outages, client crash points, and per-device
clock skew.  Plans are frozen dataclasses with an explicit ``seed``, so a
plan *is* its reproduction recipe — two runs of the same plan against the
same world produce byte-identical outcomes (the determinism-guard test
pins this down).

Plans never act on their own.  The :class:`repro.faults.injector.FaultInjector`
interprets a plan at the harness's hook points; production modules
(:mod:`repro.privacy.anonymity`, :mod:`repro.privacy.tokens`,
:mod:`repro.service.server`) only ever see an opaque ``fault_hook`` object
and never import this package — ``repro analyze`` enforces that with the
``faults-only-in-harness`` rule.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Window:
    """A half-open simulated-time interval ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("window end must be after start")

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class DropFault:
    """Messages submitted during ``window`` are lost with probability ``rate``."""

    window: Window
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("drop rate must lie in [0, 1]")


@dataclass(frozen=True)
class DelayFault:
    """Messages submitted during ``window`` gain up to ``max_extra`` latency."""

    window: Window
    max_extra: float

    def __post_init__(self) -> None:
        if self.max_extra < 0:
            raise ValueError("extra delay must be non-negative")


@dataclass(frozen=True)
class DuplicateFault:
    """The network re-delivers a copy with probability ``rate``.

    The copy is submitted ``<= max_offset`` later — the classic retransmitting
    middlebox / at-least-once queue failure that makes idempotent intake
    mandatory.
    """

    window: Window
    rate: float
    max_offset: float = 3600.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("duplicate rate must lie in [0, 1]")
        if self.max_offset < 0:
            raise ValueError("offset must be non-negative")


@dataclass(frozen=True)
class ServerOutage:
    """The upload endpoint is down: envelopes arriving in ``window`` are lost.

    The channel is fire-and-forget (no ack — an ack would link the upload
    to the device), so the sender never learns about the loss; only bounded
    retransmission recovers these records.
    """

    window: Window


@dataclass(frozen=True)
class IssuerOutage:
    """The token issuer refuses issuance during ``window``.

    Clients see :class:`repro.privacy.tokens.IssuerUnavailable` and retry
    with backoff; envelopes beyond the wallet balance stay queued.
    """

    window: Window


@dataclass(frozen=True)
class ClientCrash:
    """A device dies at ``time`` and restarts from its durable checkpoint.

    ``device_ids`` of ``None`` crashes every client.  Anything not covered
    by :meth:`repro.client.app.RSPClient.checkpoint` — in-memory working
    state — is lost and must be rederivable.
    """

    time: float
    device_ids: frozenset[str] | None = None

    def affects(self, device_id: str) -> bool:
        return self.device_ids is None or device_id in self.device_ids


@dataclass(frozen=True)
class ReplicaOutage:
    """The primary→replica log-shipping channel is down during ``window``.

    Shipments attempted inside the window are deferred whole (log
    shipping is all-or-nothing per batch); replication lag grows until
    the first shipment after the window drains the backlog.  Bounded
    staleness, never loss.
    """

    window: Window


@dataclass(frozen=True)
class PrimaryCrash:
    """The primary RSP process dies at ``time``; the replica takes over.

    ``torn_bytes`` of garbage land on the primary's WAL tail, modelling
    a frame whose write the crash cut short.  The epoch driver promotes
    the replica at the first epoch boundary at or after ``time``, points
    clients at it, and lets the existing retransmission machinery cover
    whatever was in flight.
    """

    time: float
    torn_bytes: int = 0

    def __post_init__(self) -> None:
        if self.torn_bytes < 0:
            raise ValueError("torn_bytes must be non-negative")


@dataclass(frozen=True)
class ClockSkew:
    """A device's local clock runs ``offset`` seconds from true time.

    ``device_id`` of ``None`` skews every device.  Skew shifts upload
    scheduling and quota windows — exactly the drift a real fleet shows.
    """

    offset: float
    device_id: str | None = None

    def applies_to(self, device_id: str) -> bool:
        return self.device_id is None or self.device_id == device_id


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic script of failures for a whole deployment run."""

    seed: int = 0
    drops: tuple[DropFault, ...] = ()
    delays: tuple[DelayFault, ...] = ()
    duplicates: tuple[DuplicateFault, ...] = ()
    server_outages: tuple[ServerOutage, ...] = ()
    issuer_outages: tuple[IssuerOutage, ...] = ()
    crashes: tuple[ClientCrash, ...] = ()
    skews: tuple[ClockSkew, ...] = ()
    replica_outages: tuple[ReplicaOutage, ...] = ()
    primary_crashes: tuple[PrimaryCrash, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (
            self.drops
            or self.delays
            or self.duplicates
            or self.server_outages
            or self.issuer_outages
            or self.crashes
            or self.skews
            or self.replica_outages
            or self.primary_crashes
        )

    def describe(self) -> str:
        """A one-line human summary for CLI / report headers."""
        parts: list[str] = [f"seed={self.seed}"]
        if self.drops:
            parts.append(f"{len(self.drops)} drop window(s)")
        if self.delays:
            parts.append(f"{len(self.delays)} delay window(s)")
        if self.duplicates:
            parts.append(f"{len(self.duplicates)} duplication window(s)")
        if self.server_outages:
            parts.append(f"{len(self.server_outages)} server outage(s)")
        if self.issuer_outages:
            parts.append(f"{len(self.issuer_outages)} issuer outage(s)")
        if self.crashes:
            parts.append(f"{len(self.crashes)} client crash(es)")
        if self.skews:
            parts.append(f"{len(self.skews)} clock skew(s)")
        if self.replica_outages:
            parts.append(f"{len(self.replica_outages)} replica outage(s)")
        if self.primary_crashes:
            parts.append(f"{len(self.primary_crashes)} primary crash(es)")
        return "FaultPlan(" + ", ".join(parts) + ")"


# ------------------------------------------------------- plan constructors


def lossy_plan(rate: float, horizon: float, seed: int = 0) -> FaultPlan:
    """Uniform message loss at ``rate`` over the whole horizon."""
    return FaultPlan(seed=seed, drops=(DropFault(Window(0.0, horizon), rate),))


def outage_plan(
    server_window: Window | None = None,
    issuer_window: Window | None = None,
    seed: int = 0,
) -> FaultPlan:
    """Server and/or issuer downtime windows, nothing else."""
    return FaultPlan(
        seed=seed,
        server_outages=(ServerOutage(server_window),) if server_window else (),
        issuer_outages=(IssuerOutage(issuer_window),) if issuer_window else (),
    )


@dataclass(frozen=True)
class FaultReport:
    """What an injector actually did — surfaced in epoch reports and tests."""

    messages_dropped: int = 0
    messages_delayed: int = 0
    messages_duplicated: int = 0
    envelopes_lost_to_outage: int = 0
    issuance_refusals: int = 0
    crashes_triggered: int = 0
    shipments_deferred: int = 0
    primary_crashes_triggered: int = 0
