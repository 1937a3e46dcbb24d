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
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

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


class LocationColumns:
    """A run of location fixes as three float64 columns: times ``t`` and
    positions ``x``, ``y``, all fixes sharing one ``accuracy_km``.

    This is how a device trace holds its location stream: the sensor
    model draws it column-wise and :class:`~repro.sensing.location.StayPointFold`
    folds it column-wise, so no per-fix object is built on the way.  The
    columns are read-only; slicing gives a view over the same fixes, and
    :meth:`samples` gives them as :class:`LocationSample` objects.
    """

    __slots__ = ("t", "x", "y", "accuracy_km")

    def __init__(
        self,
        t: np.ndarray | Iterable[float],
        x: np.ndarray | Iterable[float],
        y: np.ndarray | Iterable[float],
        accuracy_km: float = 0.03,
    ) -> None:
        if accuracy_km < 0:
            raise ValueError("accuracy must be non-negative")
        columns = [np.asarray(column, dtype=np.float64) for column in (t, x, y)]
        if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
            raise ValueError("location columns must be 1-d and of one length")
        for column in columns:
            column.flags.writeable = False
        self.t, self.x, self.y = columns
        self.accuracy_km = accuracy_km

    @classmethod
    def of(cls, samples: Iterable[LocationSample]) -> "LocationColumns":
        """The columns of ``samples``, in their order; the samples must
        share one accuracy."""
        samples = list(samples)
        accuracies = {sample.accuracy_km for sample in samples} or {0.03}
        if len(accuracies) > 1:
            raise ValueError("location columns need one accuracy for every fix")
        return cls(
            [sample.time for sample in samples],
            [sample.point.x for sample in samples],
            [sample.point.y for sample in samples],
            accuracies.pop(),
        )

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index: slice) -> "LocationColumns":
        if not isinstance(index, slice):
            raise TypeError("location columns slice by fix range only")
        # Views of checked, read-only columns need no checks of their own.
        view = object.__new__(LocationColumns)
        view.t, view.x, view.y = self.t[index], self.x[index], self.y[index]
        view.accuracy_km = self.accuracy_km
        return view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocationColumns):
            return NotImplemented
        return (
            self.accuracy_km == other.accuracy_km
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LocationColumns(<{len(self)} fixes>)"

    def sorted(self) -> "LocationColumns":
        """The fixes stably time-ordered, as ``list.sort`` orders samples."""
        order = np.argsort(self.t, kind="stable")
        return LocationColumns(self.t[order], self.x[order], self.y[order], self.accuracy_km)

    def point(self, index: int) -> Point:
        """The position of one fix."""
        return Point(float(self.x[index]), float(self.y[index]))

    def samples(self) -> list[LocationSample]:
        """The fixes as :class:`LocationSample` objects."""
        accuracy = self.accuracy_km
        return [
            LocationSample(time=t, point=Point(x, y), accuracy_km=accuracy)
            for t, x, y in zip(self.t.tolist(), self.x.tolist(), self.y.tolist())
        ]


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

    The location stream is held as :class:`LocationColumns`
    (``locations``); given a list of :class:`LocationSample` instead, the
    trace turns it into columns.  ``location_samples`` is a read-only view
    of the same fixes as sample objects.

    The location fixes may be a *window* of the device's stream: they
    start at index ``window_start`` of it, and their first ``n_final``
    entries are final — no later observation of the device changes them,
    so the next window starts right after them.  The rest is provisional
    and is sent again, possibly changed, in the next window.

    The call records may be a window of the device's call log too: they
    start at row ``call_start`` of it and are all final, because a call
    before the horizon never changes.  A window holds the rows timed from
    the previous window's horizon up to its own.

    Payment records are complete: every payment of a visit that started
    before the horizon.  The defaults describe a full trace, its samples
    wholly provisional.
    """

    user_id: str
    locations: LocationColumns = field(default_factory=lambda: LocationColumns([], [], []))
    call_records: list[CallRecord] = field(default_factory=list)
    payment_records: list[PaymentRecord] = field(default_factory=list)
    window_start: int = 0
    n_final: int = 0
    call_start: int = 0

    def __post_init__(self) -> None:
        if self.window_start < 0 or self.n_final < 0 or self.call_start < 0:
            raise ValueError("window indices must be non-negative")
        if not isinstance(self.locations, LocationColumns):
            self.locations = LocationColumns.of(self.locations)

    @property
    def location_samples(self) -> list[LocationSample]:
        """The location fixes as sample objects (a fresh list each time)."""
        return self.locations.samples()

    def sort(self) -> None:
        """Time-order all streams in place."""
        self.locations = self.locations.sorted()
        self.call_records.sort(key=lambda c: c.time)
        self.payment_records.sort(key=lambda p: p.time)

    @property
    def n_gps_fixes(self) -> int:
        return len(self.locations)

    @property
    def span(self) -> float:
        """Time covered by the location stream (seconds)."""
        t = self.locations.t
        if not len(t):
            return 0.0
        return float(t[-1] - t[0])
