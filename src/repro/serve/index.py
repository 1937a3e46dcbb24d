"""The inverted index behind "best X near Y": category x zone x attribute.

The catalog is the RSP's static dimension — entities appear at deploy
time, not per request — so the index is built once per serving layer and
answers every query from postings:

* ``(category, zone_id)`` postings hold the entity ids of that category
  inside that zone (the city-grid zone plays the paper's zipcode);
* attribute postings hold the ids carrying a tag, including a synthetic
  ``price:N`` tag per price level so every entity is attribute-queryable.

Candidate generation sweeps only the zones whose area intersects the
query circle, concatenates their category postings, applies the optional
attribute filter, and finishes with the exact distance test.  Zone
assignment clamps into the grid (``CityGrid.zone_containing``), so the
sweep widens edge zones to cover everything outside the city bounds —
an entity clamped inward from outside the grid is still found by any
circle that reaches its true location.

The index is *coverage-exact*: for every query, the candidate set equals
what a full catalog scan with the same predicates would produce
(``tests/serve/test_index.py`` proves it against randomized catalogs).
Candidates are returned in entity-id order — the read path never leaks
hash order into ranked output (the ``det-read-path`` lint rule holds the
line).
"""

from __future__ import annotations

from repro.world.entities import Entity
from repro.world.geography import CityGrid, Point, Zone


def price_tag(price_level: int) -> str:
    """The synthetic attribute tag carried by every entity."""
    return f"price:{price_level}"


class SummaryIndex:
    """Inverted index over the catalog: category x zone x attribute."""

    def __init__(self, catalog: list[Entity], grid: CityGrid | None = None) -> None:
        if not catalog:
            raise ValueError("catalog must be non-empty")
        self.grid = grid or CityGrid()
        self._entities: dict[str, Entity] = {}
        #: (category, zone_id) -> entity ids, in id order.
        self._postings: dict[tuple[str, str], list[str]] = {}
        #: attribute tag -> entity ids carrying it (membership-only).
        self._attribute_postings: dict[str, frozenset[str]] = {}
        attribute_sets: dict[str, set[str]] = {}
        for entity in sorted(catalog, key=lambda e: e.entity_id):
            if entity.entity_id in self._entities:
                raise ValueError(f"duplicate entity id {entity.entity_id!r}")
            self._entities[entity.entity_id] = entity
            zone = self.grid.zone_containing(entity.location)
            key = (entity.category, zone.zone_id)
            self._postings.setdefault(key, []).append(entity.entity_id)
            for tag in (*entity.attributes, price_tag(entity.price_level)):
                attribute_sets.setdefault(tag, set()).add(entity.entity_id)
        self._attribute_postings = {
            tag: frozenset(ids) for tag, ids in sorted(attribute_sets.items())
        }
        #: (category, attribute) -> its dependency set, built on first use.
        self._dependency_groups: dict[tuple[str, str | None], tuple[str, ...]] = {}

    @property
    def n_entities(self) -> int:
        return len(self._entities)

    @property
    def n_postings(self) -> int:
        """Number of (category, zone) posting lists."""
        return len(self._postings)

    def entity(self, entity_id: str) -> Entity:
        return self._entities[entity_id]

    def attribute_ids(self, tag: str) -> frozenset[str]:
        """Ids carrying ``tag`` (empty set for unknown tags)."""
        return self._attribute_postings.get(tag, frozenset())

    # -------------------------------------------------------- zone sweep

    def _zone_reach(self, zone: Zone, near: Point) -> float:
        """Distance from ``near`` to the zone's *assignment region*.

        The assignment region is the zone rectangle widened to infinity
        on every edge that borders the outside of the grid, matching the
        clamping of :meth:`CityGrid.zone_containing` — so a point is in
        exactly one assignment region, the region of the zone it is
        assigned to.
        """
        x_min = float("-inf") if zone.col == 0 else zone.x_min
        x_max = float("inf") if zone.col == self.grid.cols - 1 else zone.x_max
        y_min = float("-inf") if zone.row == 0 else zone.y_min
        y_max = float("inf") if zone.row == self.grid.rows - 1 else zone.y_max
        dx = max(x_min - near.x, 0.0, near.x - x_max)
        dy = max(y_min - near.y, 0.0, near.y - y_max)
        return (dx * dx + dy * dy) ** 0.5

    def zones_in_reach(self, near: Point, radius_km: float) -> list[Zone]:
        """Zones whose assignment region intersects the query circle."""
        return [
            zone
            for zone in self.grid.zones
            if self._zone_reach(zone, near) <= radius_km
        ]

    # -------------------------------------------------------- candidates

    def candidate_ids(self, category: str, attribute: str | None = None) -> tuple[str, ...]:
        """Every id matching the discrete predicates, in id order.

        This is the query's *dependency set* — the entities whose summary
        versions a cached result is keyed on.  It deliberately ignores
        the location predicate: the geometry never changes, so keying on
        the widest discrete match keeps the set independent of float
        distance edge cases.  The catalog is static, so each
        ``(category, attribute)`` pair's set is built once and the same
        tuple is returned ever after — the cache interns its dependency
        group by that tuple.
        """
        group = self._dependency_groups.get((category, attribute))
        if group is None:
            ids = [
                entity_id
                for (posting_category, _), zone_ids in sorted(self._postings.items())
                if posting_category == category
                for entity_id in zone_ids
            ]
            if attribute is not None:
                tagged = self.attribute_ids(attribute)
                ids = [entity_id for entity_id in ids if entity_id in tagged]
            group = tuple(sorted(ids))
            self._dependency_groups[(category, attribute)] = group
        return group

    def candidates(
        self,
        category: str,
        near: Point,
        radius_km: float,
        attribute: str | None = None,
    ) -> list[tuple[Entity, float]]:
        """Matching ``(entity, distance_km)`` pairs, in entity-id order.

        Equivalent to the full-scan predicate ``category == c and
        (attribute in tags) and distance <= r`` — the zone sweep only
        prunes, never filters.
        """
        tagged = None if attribute is None else self.attribute_ids(attribute)
        matches: list[tuple[Entity, float]] = []
        for zone in self.zones_in_reach(near, radius_km):
            for entity_id in self._postings.get((category, zone.zone_id), ()):
                if tagged is not None and entity_id not in tagged:
                    continue
                entity = self._entities[entity_id]
                distance = near.distance_to(entity.location)
                if distance <= radius_km:
                    matches.append((entity, distance))
        matches.sort(key=lambda pair: pair[0].entity_id)
        return matches
