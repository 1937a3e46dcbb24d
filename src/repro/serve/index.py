"""The inverted index behind "best X near Y": category x zone x attribute.

The catalog is the RSP's static dimension — entities appear at deploy
time, not per request — so the index is built once per serving layer and
answers every query from postings:

* per-category zone cells hold ``(entity_id, entity, x, y)`` for that
  category's entities inside each zone, in id order (the city-grid zone
  plays the paper's zipcode);
* attribute postings hold the ids carrying a tag, including a synthetic
  ``price:N`` tag per price level so every entity is attribute-queryable.

Candidate generation is one arithmetic sweep: every zone gets the exact
reach test from precomputed row and column bands, and only the zones in
reach have their entities put to the exact distance test.
Zone assignment clamps into the grid (``CityGrid.zone_containing``), so
the reach test widens edge zones to cover everything outside the city
bounds — an entity clamped inward from outside the grid is still found
by any circle that reaches its true location.

The index is *coverage-exact*: for every query, the candidate set equals
what a full catalog scan with the same predicates would produce
(``tests/serve/test_index.py`` proves it against randomized catalogs).
Candidates are returned in entity-id order — the read path never leaks
hash order into ranked output (the ``det-read-path`` lint rule holds the
line).
"""

from __future__ import annotations

import math
from operator import itemgetter

from repro.world.entities import Entity
from repro.world.geography import CityGrid, Point

#: One entity in a zone cell: ``(entity_id, entity, x, y)``.
CellEntry = tuple[str, Entity, float, float]


def price_tag(price_level: int) -> str:
    """The synthetic attribute tag carried by every entity."""
    return f"price:{price_level}"


class SummaryIndex:
    """Inverted index over the catalog: category x zone x attribute."""

    def __init__(self, catalog: list[Entity], grid: CityGrid | None = None) -> None:
        if not catalog:
            raise ValueError("catalog must be non-empty")
        self.grid = grid or CityGrid()
        zones = self.grid.zones
        # Each column's (row's) assignment band: the zone edges, widened
        # to infinity where they border the outside of the grid, matching
        # the clamping of ``CityGrid.zone_containing`` — so a point is in
        # exactly one assignment region, the region of its zone.
        last_col, last_row = self.grid.cols - 1, self.grid.rows - 1
        self._x_bands = tuple(
            (
                -math.inf if zone.col == 0 else zone.x_min,
                math.inf if zone.col == last_col else zone.x_max,
            )
            for zone in zones[: self.grid.cols]
        )
        self._y_bands = tuple(
            (
                -math.inf if zone.row == 0 else zone.y_min,
                math.inf if zone.row == last_row else zone.y_max,
            )
            for zone in zones[:: self.grid.cols]
        )
        self._entities: dict[str, Entity] = {}
        cells: dict[str, list[list[CellEntry]]] = {}
        attribute_sets: dict[str, set[str]] = {}
        for entity in sorted(catalog, key=lambda e: e.entity_id):
            if entity.entity_id in self._entities:
                raise ValueError(f"duplicate entity id {entity.entity_id!r}")
            self._entities[entity.entity_id] = entity
            zone = self.grid.zone_containing(entity.location)
            grid_cells = cells.get(entity.category)
            if grid_cells is None:
                grid_cells = cells[entity.category] = [[] for _ in zones]
            grid_cells[zone.row * self.grid.cols + zone.col].append(
                (entity.entity_id, entity, entity.location.x, entity.location.y)
            )
            for tag in (*entity.attributes, price_tag(entity.price_level)):
                attribute_sets.setdefault(tag, set()).add(entity.entity_id)
        #: category -> one tuple per zone (row-major), entries in id order.
        self._cells: dict[str, tuple[tuple[CellEntry, ...], ...]] = {
            category: tuple(tuple(cell) for cell in grid_cells)
            for category, grid_cells in sorted(cells.items())
        }
        #: attribute tag -> entity ids carrying it (membership-only).
        self._attribute_postings: dict[str, frozenset[str]] = {
            tag: frozenset(ids) for tag, ids in sorted(attribute_sets.items())
        }
        #: (category, attribute) -> its dependency set, built on first use.
        self._dependency_groups: dict[tuple[str, str | None], tuple[str, ...]] = {}

    @property
    def n_entities(self) -> int:
        return len(self._entities)

    @property
    def n_postings(self) -> int:
        """Number of non-empty (category, zone) cells."""
        return sum(
            1 for grid_cells in self._cells.values() for cell in grid_cells if cell
        )

    def entity(self, entity_id: str) -> Entity:
        return self._entities[entity_id]

    def attribute_ids(self, tag: str) -> frozenset[str]:
        """Ids carrying ``tag`` (empty set for unknown tags)."""
        return self._attribute_postings.get(tag, frozenset())

    # -------------------------------------------------------- zone sweep

    def _zone_indices(self, near: Point, radius_km: float) -> list[int]:
        """Row-major indices of the zones whose assignment region meets
        the query circle — the exact reach test, run on every zone."""
        cols = self.grid.cols
        x, y = near.x, near.y
        squared_gaps = []
        for x_min, x_max in self._x_bands:
            dx = max(x_min - x, 0.0, x - x_max)
            squared_gaps.append(dx * dx)
        found = []
        for row, (y_min, y_max) in enumerate(self._y_bands):
            dy = max(y_min - y, 0.0, y - y_max)
            dy2 = dy * dy
            base = row * cols
            for col, dx2 in enumerate(squared_gaps):
                if (dx2 + dy2) ** 0.5 <= radius_km:
                    found.append(base + col)
        return found

    # -------------------------------------------------------- candidates

    def candidate_ids(self, category: str, attribute: str | None = None) -> tuple[str, ...]:
        """Every id matching the discrete predicates, in id order.

        This is the query's *dependency set* — the entities whose summary
        change evicts a cached result.  It deliberately ignores
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
                entry[0]
                for cell in self._cells.get(category, ())
                for entry in cell
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
        prunes, never filters.  The distance is ``Point.distance_to``'s
        own ``math.hypot`` call.
        """
        grid_cells = self._cells.get(category)
        if grid_cells is None:
            return []
        tagged = None if attribute is None else self.attribute_ids(attribute)
        x, y = near.x, near.y
        hypot = math.hypot
        matches: list[tuple[str, Entity, float]] = []
        for index in self._zone_indices(near, radius_km):
            for entity_id, entity, entity_x, entity_y in grid_cells[index]:
                if tagged is not None and entity_id not in tagged:
                    continue
                distance = hypot(x - entity_x, y - entity_y)
                if distance <= radius_km:
                    matches.append((entity_id, entity, distance))
        matches.sort(key=itemgetter(0))
        return [(entity, distance) for _, entity, distance in matches]
