"""Raw sensor data structures: what the RSP's app actually sees.

The paper's client never observes "user visited restaurant X" — it observes
GPS fixes, call-log rows, and payment records, and must *infer* the visit
(Section 3.1, "Inferring user-entity interactions").  These dataclasses are
that raw material.  Everything downstream of :mod:`repro.sensing` consumes
only these types, never the ground-truth events of :mod:`repro.world` —
keeping the inference honest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.world.geography import Point


@dataclass(frozen=True)
class LocationSample:
    """One GPS/WiFi positioning fix."""

    time: float
    point: Point
    #: Positioning error estimate in km (GPS ~0.01-0.05, cell tower ~0.5+).
    accuracy_km: float = 0.03

    def __post_init__(self) -> None:
        if self.accuracy_km < 0:
            raise ValueError("accuracy must be non-negative")


class CallDirection(enum.Enum):
    OUTGOING = "outgoing"
    INCOMING = "incoming"


@dataclass(frozen=True)
class CallRecord:
    """One call-log row."""

    time: float
    number: str
    duration: float
    direction: CallDirection = CallDirection.OUTGOING

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


@dataclass(frozen=True)
class PaymentRecord:
    """One card/app payment — a digital footprint of a physical interaction."""

    time: float
    merchant_name: str
    amount: float

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError("amount must be non-negative")


@dataclass
class DeviceTrace:
    """Everything one user's device recorded over the observation window.

    The location samples may be a *window* of the device's stream: they
    start at index ``window_start`` of it, and their first ``n_final``
    entries are final — no later observation of the device changes them,
    so the next window starts right after them.  The rest is provisional
    and is sent again, possibly changed, in the next window.  The
    defaults describe a full, wholly provisional trace.  Call and payment
    records are always complete.
    """

    user_id: str
    location_samples: list[LocationSample] = field(default_factory=list)
    call_records: list[CallRecord] = field(default_factory=list)
    payment_records: list[PaymentRecord] = field(default_factory=list)
    window_start: int = 0
    n_final: int = 0

    def __post_init__(self) -> None:
        if self.window_start < 0 or self.n_final < 0:
            raise ValueError("window indices must be non-negative")

    def sort(self) -> None:
        """Time-order all streams in place."""
        self.location_samples.sort(key=lambda s: s.time)
        self.call_records.sort(key=lambda c: c.time)
        self.payment_records.sort(key=lambda p: p.time)

    @property
    def n_gps_fixes(self) -> int:
        return len(self.location_samples)

    @property
    def span(self) -> float:
        """Time covered by the location stream (seconds)."""
        if not self.location_samples:
            return 0.0
        return self.location_samples[-1].time - self.location_samples[0].time
