"""Local entity resolution: mapping sensor observations to entities.

Section 4.2 requires that the RSP's app "locally map the inputs that it is
privy to to the corresponding entities" — resolution happens on the device,
so raw location and call history never leave it.  The resolver holds the
public entity directory (venue locations, phone numbers: the same data any
maps app ships) and converts stay points and call-log rows into
:class:`ObservedInteraction` records.

Resolution is deliberately imperfect in the same ways a real system is:

* a stay point matches the *nearest* venue within a threshold, so two
  venues in the same building can be confused;
* stay points matching no venue (home, work, a park) are dropped;
* calls to numbers outside the directory (friends, family) are dropped;
* anchors (home/work) are inferred from the trace itself as the most
  dwelled-at stay locations, never given to the resolver.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.sensing.location import StayPoint, StayPointConfig, extract_stay_points
from repro.sensing.spatial import GridIndex
from repro.sensing.traces import CallRecord, DeviceTrace
from repro.world.entities import Entity
from repro.world.geography import Point


class InteractionType(enum.Enum):
    VISIT = "visit"
    CALL = "call"


@dataclass(frozen=True)
class ObservedInteraction:
    """One inferred user-entity interaction, as the client sees it.

    ``travel_km`` is the distance from the previous stationary spot (the
    paper's effort feature); it is 0 for calls, where the user did not move.
    """

    entity_id: str
    interaction_type: InteractionType
    time: float
    duration: float
    travel_km: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.travel_km < 0:
            raise ValueError("travel distance must be non-negative")


@dataclass(frozen=True)
class ResolverConfig:
    """Matching thresholds."""

    #: Maximum stay-point-to-venue distance for a match, km.
    match_radius_km: float = 0.12
    #: Stay points dwelling longer than this are anchor candidates (home,
    #: work) rather than venue visits, seconds.
    anchor_dwell_threshold: float = 6 * 3600.0
    #: Stay-point extraction settings.
    stay_points: StayPointConfig = field(default_factory=StayPointConfig)


class EntityResolver:
    """Resolves a :class:`DeviceTrace` into observed interactions."""

    def __init__(self, entities: list[Entity], config: ResolverConfig | None = None) -> None:
        if not entities:
            raise ValueError("resolver needs a non-empty entity directory")
        self.config = config or ResolverConfig()
        self._entities = list(entities)
        self._index = GridIndex(entities, cell_km=1.0)
        self._by_phone = {entity.phone: entity for entity in entities if entity.phone}

    def nearest_entity(self, point: Point) -> tuple[Entity | None, float]:
        """The nearest directory entity and its distance (km)."""
        return self._index.nearest(point)

    def resolve_phone(self, number: str) -> Entity | None:
        """Directory lookup of a call-log number; None for personal calls."""
        return self._by_phone.get(number)

    def resolve_calls(self, records: Iterable[CallRecord]) -> list[ObservedInteraction]:
        """The entity calls among call-log rows, in row order; personal
        calls are dropped."""
        calls: list[ObservedInteraction] = []
        for call in records:
            entity = self.resolve_phone(call.number)
            if entity is None:
                continue
            calls.append(
                ObservedInteraction(
                    entity_id=entity.entity_id,
                    interaction_type=InteractionType.CALL,
                    time=call.time,
                    duration=call.duration,
                )
            )
        return calls

    def resolve(
        self,
        trace: DeviceTrace,
        stays: list[StayPoint] | None = None,
        calls: list[ObservedInteraction] | None = None,
    ) -> list[ObservedInteraction]:
        """Turn one device trace into time-ordered observed interactions.

        ``stays`` are the stay points of the device's whole location
        stream, and ``calls`` the resolved entity calls of its whole call
        log (:meth:`resolve_calls`), for a caller that keeps them itself: a
        window trace holds only part of the stream and of the log.  By
        default both come from the trace.
        """
        interactions: list[ObservedInteraction] = []
        if stays is None:
            stays = extract_stay_points(trace.locations, self.config.stay_points)

        for index, stay in enumerate(stays):
            if stay.duration >= self.config.anchor_dwell_threshold:
                continue  # home/work/overnight anchor, not a venue visit
            entity, distance = self.nearest_entity(stay.center)
            if entity is None or distance > self.config.match_radius_km:
                continue
            travel = (
                stays[index - 1].center.distance_to(stay.center) if index > 0 else 0.0
            )
            interactions.append(
                ObservedInteraction(
                    entity_id=entity.entity_id,
                    interaction_type=InteractionType.VISIT,
                    time=stay.start,
                    duration=stay.duration,
                    travel_km=travel,
                )
            )

        if calls is None:
            calls = self.resolve_calls(trace.call_records)
        interactions += calls
        interactions.sort(key=lambda i: i.time)
        return interactions

    def group_by_entity(
        self, interactions: list[ObservedInteraction]
    ) -> dict[str, list[ObservedInteraction]]:
        """Bucket interactions per entity — the per-(user, entity) history
        the client maintains and uploads."""
        grouped: dict[str, list[ObservedInteraction]] = defaultdict(list)
        for interaction in interactions:
            grouped[interaction.entity_id].append(interaction)
        return dict(grouped)
