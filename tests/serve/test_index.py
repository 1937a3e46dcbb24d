"""Coverage-exactness of the inverted index: the zone sweep only prunes.

The load-bearing property is that :meth:`SummaryIndex.candidates` equals
a brute-force full scan of the catalog under the same predicates, for
*any* catalog and query — including entities placed outside the city
bounds, which ``zone_containing`` clamps into edge zones and the sweep
must still find (the assignment-region widening).  Randomized catalogs
and query points drive the equivalence, and boundary queries aim at the
edges of the zone reach test: circles tangent to zone lines, centres
outside the grid, radii past the whole city and entities on zone lines.
The deterministic cases pin the construction-time contracts (id order,
duplicate rejection, postings).
"""

import pytest

from repro.ingest.loadgen import synthetic_catalog
from repro.serve.index import SummaryIndex, price_tag
from repro.util.rng import make_rng
from repro.world.entities import DEFAULT_CATEGORIES, Entity, EntityKind
from repro.world.geography import CityGrid, Point


def brute_force(catalog, category, near, radius_km, attribute=None):
    """The spec: full scan, discrete predicates plus the distance test."""
    matches = []
    for entity in sorted(catalog, key=lambda e: e.entity_id):
        if entity.category != category:
            continue
        if attribute is not None:
            tags = set(entity.attributes) | {price_tag(entity.price_level)}
            if attribute not in tags:
                continue
        distance = near.distance_to(entity.location)
        if distance <= radius_km:
            matches.append((entity.entity_id, distance))
    return matches


def random_catalog(gen, n_entities, grid):
    """Entities scattered well past the grid bounds on every side."""
    kinds = list(EntityKind)
    entities = []
    span = grid.size_km
    xs = gen.uniform(-0.5 * span, 1.5 * span, size=n_entities)
    ys = gen.uniform(-0.5 * span, 1.5 * span, size=n_entities)
    qualities = gen.uniform(0.0, 5.0, size=n_entities)
    prices = gen.integers(1, 5, size=n_entities)
    for index in range(n_entities):
        kind = kinds[index % len(kinds)]
        categories = DEFAULT_CATEGORIES[kind]
        entities.append(
            Entity(
                entity_id=f"rand-{index:04d}",
                kind=kind,
                category=categories[index % len(categories)],
                location=Point(float(xs[index]), float(ys[index])),
                quality=float(qualities[index]),
                price_level=int(prices[index]),
            )
        )
    return entities


def line_entities(gen, grid):
    """Entities exactly on zone lines: one per vertical and horizontal line
    at a random offset along it, and one on every line crossing."""
    cell_w, cell_h = grid.size_km / grid.cols, grid.size_km / grid.rows
    points = [
        Point(c * cell_w, float(gen.uniform(0.0, grid.size_km)))
        for c in range(grid.cols + 1)
    ]
    points += [
        Point(float(gen.uniform(0.0, grid.size_km)), r * cell_h)
        for r in range(grid.rows + 1)
    ]
    points += [
        Point(c * cell_w, r * cell_h)
        for c in range(grid.cols + 1)
        for r in range(grid.rows + 1)
    ]
    return [
        Entity(
            entity_id=f"line-{index:03d}",
            kind=EntityKind.RESTAURANT,
            category="thai",
            location=location,
            quality=3.0,
            price_level=1 + index % 4,
        )
        for index, location in enumerate(points)
    ]


def boundary_queries(grid, lines):
    """``(near, radius)`` pairs on the zone reach test's edges: circles
    tangent to every zone line from both sides (touching the line's
    entity), centres outside the grid, and radii past the whole city."""
    cell_w, cell_h = grid.size_km / grid.cols, grid.size_km / grid.rows
    vertical = lines[: grid.cols + 1]
    horizontal = lines[grid.cols + 1 : grid.cols + grid.rows + 2]
    queries = []
    for radius in (0.5, cell_w / 2, cell_w, 2.5 * cell_w):
        for c, entity in enumerate(vertical):
            y = entity.location.y
            queries += [
                (Point(c * cell_w + radius, y), radius),
                (Point(c * cell_w - radius, y), radius),
            ]
        for r, entity in enumerate(horizontal):
            x = entity.location.x
            queries += [
                (Point(x, r * cell_h + radius), radius),
                (Point(x, r * cell_h - radius), radius),
            ]
    outside = [
        Point(-5.0, 10.0),
        Point(25.0, 10.0),
        Point(10.0, -5.0),
        Point(10.0, 25.0),
        Point(-40.0, -40.0),
        Point(60.0, 60.0),
    ]
    queries += [(near, radius) for near in outside for radius in (3.0, 12.0, 40.0)]
    span = grid.size_km
    queries += [
        (Point(span / 2, span / 2), 1.5 * span),
        (Point(-30.0, 50.0), 10.0 * span),
        (Point(0.0, 0.0), 1e6),
    ]
    return queries


class TestCoverageExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_candidates_equal_full_scan_on_random_catalogs(self, seed):
        gen = make_rng(seed, "test/serve-index")
        grid = CityGrid(size_km=20.0, rows=4, cols=6)
        catalog = random_catalog(gen, 80, grid)
        index = SummaryIndex(catalog, grid=grid)
        categories = sorted({entity.category for entity in catalog})
        span = grid.size_km
        for trial in range(40):
            category = categories[int(gen.integers(0, len(categories)))]
            near = Point(
                float(gen.uniform(-span, 2 * span)),
                float(gen.uniform(-span, 2 * span)),
            )
            radius = float(gen.uniform(0.5, 1.5 * span))
            attribute = (
                price_tag(int(gen.integers(1, 5)))
                if gen.random() < 0.4
                else None
            )
            got = [
                (entity.entity_id, distance)
                for entity, distance in index.candidates(
                    category, near, radius, attribute
                )
            ]
            want = brute_force(catalog, category, near, radius, attribute)
            assert got == want, (category, near, radius, attribute)

    @pytest.mark.parametrize("rows, cols", [(5, 5), (4, 6), (1, 3), (7, 1)])
    def test_boundary_circles_equal_full_scan(self, rows, cols):
        grid = CityGrid(size_km=20.0, rows=rows, cols=cols)
        gen = make_rng(rows * 10 + cols, "test/serve-index-boundary")
        lines = line_entities(gen, grid)
        catalog = random_catalog(gen, 60, grid) + lines
        index = SummaryIndex(catalog, grid=grid)
        for near, radius in boundary_queries(grid, lines):
            for attribute in (None, price_tag(2)):
                got = [
                    (entity.entity_id, distance)
                    for entity, distance in index.candidates(
                        "thai", near, radius, attribute
                    )
                ]
                want = brute_force(catalog, "thai", near, radius, attribute)
                assert got == want, (near, radius, attribute)

    def test_out_of_grid_entity_is_found_through_the_widened_edge_zone(self):
        grid = CityGrid(size_km=20.0, rows=5, cols=5)
        outside = Entity(
            entity_id="far-out",
            kind=EntityKind.RESTAURANT,
            category="thai",
            location=Point(-30.0, 50.0),  # clamped into the NW corner zone
            quality=3.0,
        )
        index = SummaryIndex([outside], grid=grid)
        # A query near the true (unclamped) location must reach it even
        # though the corner zone's rectangle is nowhere near the point.
        got = index.candidates("thai", Point(-30.0, 49.0), radius_km=2.0)
        assert [entity.entity_id for entity, _ in got] == ["far-out"]
        # And the distance is the true distance, not the clamped one.
        assert got[0][1] == pytest.approx(1.0)

    def test_synthetic_catalog_round_trip(self):
        catalog = synthetic_catalog(60, seed=3)
        index = SummaryIndex(catalog)
        got = index.candidates("thai", Point(3.0, 1.0), radius_km=6.0)
        assert got == [
            (entity, distance)
            for entity, distance in (
                (e, Point(3.0, 1.0).distance_to(e.location))
                for e in sorted(catalog, key=lambda e: e.entity_id)
                if e.category == "thai"
            )
            if distance <= 6.0
        ]


class TestConstruction:
    def test_empty_catalog_is_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SummaryIndex([])

    def test_duplicate_entity_id_is_rejected(self):
        catalog = synthetic_catalog(2, seed=0)
        with pytest.raises(ValueError, match="duplicate"):
            SummaryIndex(catalog + [catalog[0]])

    def test_counts_and_lookup(self):
        catalog = synthetic_catalog(24, seed=0)
        index = SummaryIndex(catalog)
        assert index.n_entities == 24
        assert index.n_postings >= 1
        assert index.entity(catalog[5].entity_id) is catalog[5]

    def test_attribute_postings_include_the_synthetic_price_tag(self):
        catalog = synthetic_catalog(8, seed=0)
        index = SummaryIndex(catalog)
        for entity in catalog:
            assert entity.entity_id in index.attribute_ids(
                price_tag(entity.price_level)
            )
        assert index.attribute_ids("no-such-tag") == frozenset()


class TestCandidateIds:
    """The cache dependency set: discrete predicates only, id order."""

    def test_sorted_and_geometry_free(self):
        catalog = synthetic_catalog(40, seed=1)
        index = SummaryIndex(catalog)
        ids = list(index.candidate_ids("thai"))
        assert ids == sorted(ids)
        assert ids == sorted(
            e.entity_id for e in catalog if e.category == "thai"
        )

    def test_attribute_filter_applies(self):
        catalog = synthetic_catalog(40, seed=1)
        index = SummaryIndex(catalog)
        ids = list(index.candidate_ids("thai", price_tag(2)))
        assert ids == sorted(
            e.entity_id
            for e in catalog
            if e.category == "thai" and e.price_level == 2
        )

    def test_superset_of_any_geometric_query(self):
        catalog = synthetic_catalog(40, seed=1)
        index = SummaryIndex(catalog)
        dependency = set(index.candidate_ids("thai"))
        for x in (0.0, 2.5, 5.0):
            hits = index.candidates("thai", Point(x, 1.0), radius_km=4.0)
            assert {entity.entity_id for entity, _ in hits} <= dependency
