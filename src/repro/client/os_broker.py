"""OS-enforced privacy: the trust model of Section 5, simulated.

"It would be ideal if the mechanisms that protect user anonymity are
implemented in the smartphone OS, so as to make it infeasible for an RSP's
client to compromise user privacy."

The broker models that OS support as taint tracking around sensor access:

* apps never receive raw sensor streams — they receive :class:`Tainted`
  handles whose contents are only reachable inside
  :meth:`OSPrivacyBroker.process`, the OS-supervised sandbox;
* whatever a sandboxed processor returns is scanned: raw sensor types
  (location fixes, call-log rows, payment rows) may not escape;
* all network egress goes through :meth:`OSPrivacyBroker.egress`, which
  re-scans the payload and raises :class:`EgressViolation` on any attempt
  to ship raw data — and journals the attempt for the user to see.

The honest client pipeline (resolve → features → uploads) passes these
checks untouched; a malicious client build that tries to exfiltrate raw
location history is blocked *by the OS*, not by its own good manners —
which is exactly the guarantee the paper wants the platform to provide.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Generic, TypeVar

from repro.sensing.traces import (
    CallRecord,
    DeviceTrace,
    LocationColumns,
    LocationSample,
    PaymentRecord,
)

T = TypeVar("T")
R = TypeVar("R")

#: Types that must never leave the device raw.  A trace's location stream
#: is :class:`LocationColumns`, which is not a dataclass, so the scan
#: below would not look inside it: it must be named here.
_SENSITIVE_TYPES = (LocationSample, LocationColumns, CallRecord, PaymentRecord, DeviceTrace)


class EgressViolation(Exception):
    """The OS blocked an attempt to ship raw sensor data off the device."""


@dataclass
class Tainted(Generic[T]):
    """An opaque handle to raw sensor data.

    The payload is name-mangled rather than cryptographically sealed —
    this is a simulation of an OS boundary, and the library's own code
    honours it; the enforcement that matters (egress scanning) catches the
    contents regardless of how they were obtained.
    """

    _payload: T

    def __repr__(self) -> str:  # never leak contents into logs
        return f"Tainted<{type(self._payload).__name__}>"


def contains_sensitive(value: Any, _depth: int = 0) -> bool:
    """Recursively detect raw sensor data inside ``value``."""
    if _depth > 12:
        return False
    if isinstance(value, Tainted):
        return True
    if isinstance(value, _SENSITIVE_TYPES):
        return True
    if isinstance(value, dict):
        return any(
            contains_sensitive(k, _depth + 1) or contains_sensitive(v, _depth + 1)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(contains_sensitive(item, _depth + 1) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(
            contains_sensitive(getattr(value, f.name), _depth + 1)
            for f in dataclasses.fields(value)
        )
    return False


@dataclass
class AuditEvent:
    """One entry in the OS's user-visible privacy journal."""

    time: float
    app_id: str
    action: str  # "sensor_read" | "process" | "egress" | "egress_blocked"
    detail: str


class OSPrivacyBroker:
    """The OS privacy layer one device runs."""

    def __init__(self, app_id: str) -> None:
        self.app_id = app_id
        self.audit_log: list[AuditEvent] = []
        self.blocked_egress_attempts = 0

    # ------------------------------------------------------- sensor access

    def read_sensors(self, trace: DeviceTrace, now: float = 0.0) -> Tainted[DeviceTrace]:
        """Grant the app its (tainted) view of the sensor streams."""
        self.audit_log.append(
            AuditEvent(
                time=now,
                app_id=self.app_id,
                action="sensor_read",
                detail=(
                    f"{trace.n_gps_fixes} location fixes, "
                    f"{len(trace.call_records)} call-log rows, "
                    f"{len(trace.payment_records)} payment rows"
                ),
            )
        )
        return Tainted(trace)

    # ------------------------------------------------------------ sandbox

    def process(
        self,
        tainted: Tainted[T],
        processor: Callable[[T], R],
        now: float = 0.0,
        label: str = "processor",
    ) -> R:
        """Run a processor over raw data inside the OS sandbox.

        The processor sees the raw payload; its *return value* is scanned —
        raw sensor types may not flow out of the sandbox, only derived
        records (observed interactions, features, uploads).
        """
        result = processor(tainted._payload)
        if contains_sensitive(result):
            raise EgressViolation(
                f"sandboxed {label} tried to return raw sensor data"
            )
        self.audit_log.append(
            AuditEvent(time=now, app_id=self.app_id, action="process", detail=label)
        )
        return result

    # ------------------------------------------------------------- egress

    def egress(self, payload: Any, now: float = 0.0, destination: str = "rsp") -> Any:
        """Scan and release one outbound payload.

        Raises :class:`EgressViolation` (and journals the attempt) if the
        payload contains raw sensor data, tainted handles, or anything
        derived carelessly enough to embed them.
        """
        if contains_sensitive(payload):
            self.blocked_egress_attempts += 1
            self.audit_log.append(
                AuditEvent(
                    time=now,
                    app_id=self.app_id,
                    action="egress_blocked",
                    detail=f"raw sensor data bound for {destination}",
                )
            )
            raise EgressViolation(
                f"app {self.app_id} attempted to exfiltrate raw sensor data"
            )
        self.audit_log.append(
            AuditEvent(
                time=now,
                app_id=self.app_id,
                action="egress",
                detail=f"{type(payload).__name__} -> {destination}",
            )
        )
        return payload
