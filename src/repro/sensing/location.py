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

from repro.sensing.traces import LocationSample
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

    def extend(self, samples: Iterable[LocationSample]) -> None:
        """Fold time-ordered samples that continue the stream."""
        radius = self.config.radius_km
        start, last, n, cx, cy = self._start, self._last, self._n, self._cx, self._cy
        folded = 0
        try:
            for sample in samples:
                point = sample.point
                if n and sample.time < last:
                    raise ValueError("location samples must be time-ordered")
                if n and math.hypot(point.x - cx, point.y - cy) <= radius:
                    n += 1
                    cx += (point.x - cx) / n
                    cy += (point.y - cy) / n
                else:
                    if n:
                        stay = self._as_stay(start, last, n, cx, cy)
                        if stay is not None:
                            self._closed.append(stay)
                    else:
                        self.first_point = point
                    start, n, cx, cy = sample.time, 1, point.x, point.y
                last = sample.time
                folded += 1
        finally:
            self._start, self._last, self._n, self._cx, self._cy = start, last, n, cx, cy
            self.n_folded += folded

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
    samples: list[LocationSample],
    config: StayPointConfig | None = None,
) -> list[StayPoint]:
    """Extract stay points from a time-ordered location stream."""
    fold = StayPointFold(config)
    fold.extend(samples)
    return fold.stays()


def travel_distance_before(
    stays: list[StayPoint], index: int
) -> float:
    """Distance from the previous stay point to stay ``index`` (km).

    This is the paper's effort feature: how far the user travelled since
    their previous stationary spot.  The first stay has no predecessor and
    reports 0.
    """
    if not 0 <= index < len(stays):
        raise IndexError("stay index out of range")
    if index == 0:
        return 0.0
    return stays[index - 1].center.distance_to(stays[index].center)
