"""Stay-point extraction: from GPS fixes to dwell episodes.

The classic trajectory-mining primitive: a *stay point* is a maximal run of
consecutive fixes that remain within ``radius_km`` of the run's centroid
for at least ``min_duration`` seconds.  Stay points are the unit the entity
resolver matches against venues; travel segments between them provide the
"distance travelled since previous stationary spot" feature the paper
names (Section 4.2).
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.sensing.traces import LocationColumns, LocationSample
from repro.world.geography import Point


@dataclass(frozen=True)
class StayPoint:
    """A dwell episode extracted from the location stream."""

    center: Point
    start: float
    end: float
    n_samples: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class StayPointConfig:
    """Extraction thresholds.

    Defaults suit urban venue visits: 150 m radius tolerates GPS noise and
    building footprints; 10 minutes filters out traffic lights and queues;
    2 samples is the minimum for a dwell to be evidenced at all.
    """

    radius_km: float = 0.15
    min_duration: float = 600.0
    min_samples: int = 2

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise ValueError("radius must be positive")
        if self.min_duration <= 0:
            raise ValueError("min_duration must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


class StayPointFold:
    """Resumable stay-point extraction over a growing location stream.

    Greedy single pass: grow the current cluster while each new fix stays
    within ``radius_km`` of the running centroid; on departure, close the
    cluster as a stay if it satisfies the duration and sample-count
    thresholds.  The state is the closed stays plus the open cluster, so
    extending with ``a`` and then ``b`` equals extending with ``a + b``,
    and :meth:`copy` lets a caller fold a provisional tail without
    touching the fold it keeps.

    The fold reads :class:`~repro.sensing.traces.LocationColumns` as
    Python floats, in stream order, so its stays and first point carry
    plain ``float`` values and its running centroid the same bits as a
    fold over sample objects.
    """

    def __init__(self, config: StayPointConfig | None = None) -> None:
        self.config = config or StayPointConfig()
        #: Samples folded so far.
        self.n_folded = 0
        #: Position of the first sample folded (``None`` before any).
        self.first_point: Point | None = None
        self._closed: list[StayPoint] = []
        # The open cluster: first and last fix time, size, centroid.
        self._start = self._last = 0.0
        self._n = 0
        self._cx = self._cy = 0.0

    def copy(self) -> "StayPointFold":
        twin = copy.copy(self)
        twin._closed = list(self._closed)
        return twin

    def extend(self, fixes: LocationColumns) -> None:
        """Fold time-ordered fixes that continue the stream; fixes out of
        order raise ``ValueError`` and fold nothing."""
        times = fixes.t
        if len(times) and (
            (self._n and times[0] < self._last) or np.any(times[1:] < times[:-1])
        ):
            raise ValueError("location samples must be time-ordered")
        radius = self.config.radius_km
        hypot = math.hypot
        start, last, n, cx, cy = self._start, self._last, self._n, self._cx, self._cy
        for t, x, y in zip(times.tolist(), fixes.x.tolist(), fixes.y.tolist()):
            if n and hypot(x - cx, y - cy) <= radius:
                n += 1
                cx += (x - cx) / n
                cy += (y - cy) / n
            else:
                if n:
                    stay = self._as_stay(start, last, n, cx, cy)
                    if stay is not None:
                        self._closed.append(stay)
                else:
                    self.first_point = Point(x, y)
                start, n, cx, cy = t, 1, x, y
            last = t
        self._start, self._last, self._n, self._cx, self._cy = start, last, n, cx, cy
        self.n_folded += len(times)

    def _as_stay(
        self, start: float, end: float, n: int, cx: float, cy: float
    ) -> StayPoint | None:
        """A cluster as a stay, if it meets the thresholds."""
        config = self.config
        if n >= config.min_samples and end - start >= config.min_duration:
            return StayPoint(center=Point(cx, cy), start=start, end=end, n_samples=n)
        return None

    def stays(self) -> list[StayPoint]:
        """Every stay so far, the open cluster's included; the fold itself
        stays open."""
        stays = list(self._closed)
        stay = self._as_stay(self._start, self._last, self._n, self._cx, self._cy)
        if stay is not None:
            stays.append(stay)
        return stays


def extract_stay_points(
    samples: LocationColumns | Iterable[LocationSample],
    config: StayPointConfig | None = None,
) -> list[StayPoint]:
    """Extract stay points from a time-ordered location stream, given as
    columns or as sample objects."""
    if not isinstance(samples, LocationColumns):
        samples = LocationColumns.of(samples)
    fold = StayPointFold(config)
    fold.extend(samples)
    return fold.stays()
