"""Cache coherence: a cached read can never differ from a fresh recompute.

Three layers of proof:

* unit pins on :class:`SummaryVersionCache` — fingerprints, FIFO
  eviction, the belt-and-braces staleness guard, and the stats counters;
* a hand-rolled property sweep (hypothesis is deliberately not a
  dependency): randomized intake + maintenance + query schedules, drawn
  from the ``repro.util.rng`` discipline, asserting that at *every* point
  the cached ``query()`` render equals the ``query_uncached()`` oracle;
* the claimed-entity regression — a history flip must evict cached
  results for the entity its opinion slot *claims*, which need not be
  the entity that was dirty (the ``summarize_tracked`` cascade of
  :mod:`repro.service.incremental`).
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.fraud.detector import FraudDetector, FraudFlag, HistoryVerdict
from repro.ingest import SyntheticTraffic
from repro.privacy.history_store import InteractionUpload
from repro.serve.cache import SummaryVersionCache
from repro.serve.engine import ServeQuery
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.util.rng import make_rng
from repro.world.entities import Entity, EntityKind
from repro.world.geography import Point

from tests.serve.conftest import TRAFFIC, deliver_records, make_server


class TestCacheUnit:
    def test_miss_then_hit_round_trip(self):
        cache = SummaryVersionCache()
        assert cache.get("q") is None
        cache.put("q", "response", ["a", "b"])
        entry = cache.get("q")
        assert entry is not None and entry.response == "response"
        assert entry.fingerprint == (("a", 0), ("b", 0))
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_invalidate_bumps_versions_and_drops_dependents(self):
        cache = SummaryVersionCache()
        cache.put("q1", "r1", ["a", "b"])
        cache.put("q2", "r2", ["c"])
        assert cache.invalidate(["b"]) == 1
        assert cache.version("b") == 1
        assert cache.get("q1") is None  # dropped eagerly
        assert cache.get("q2") is not None  # untouched dependency set
        assert cache.stats.invalidations == 1

    def test_invalidating_an_uncached_entity_only_bumps_its_version(self):
        cache = SummaryVersionCache()
        assert cache.invalidate(["ghost"]) == 0
        assert cache.version("ghost") == 1
        assert cache.stats.invalidations == 0

    def test_missed_eviction_degrades_to_a_miss_never_a_stale_hit(self):
        # The fingerprint guard: simulate an invalidation whose reverse
        # map lost track of the entry (versions bump, the eager drop is
        # missed) — the entry must not serve.
        cache = SummaryVersionCache()
        cache.put("q", "stale", ["a"])
        cache._dependents.clear()
        assert cache.invalidate(["a"]) == 0
        assert cache.get("q") is None
        assert cache.stats.misses == 1
        # The dead entry was reaped on the way out.
        assert len(cache) == 0

    def test_revalidation_restamps_an_untouched_entry(self):
        # An invalidation of an unrelated entity forces one fingerprint
        # scan; the entry survives it and the next hit is fast-path again.
        cache = SummaryVersionCache()
        cache.put("q", "r", ["a"])
        cache.invalidate(["other"])
        assert cache.get("q") is not None  # full scan passes
        assert cache._entries["q"].generation == cache._generation
        assert cache.get("q") is not None
        assert cache.stats.hits == 2

    def test_fifo_eviction_at_capacity(self):
        cache = SummaryVersionCache(max_entries=2)
        cache.put("q1", "r1", ["a"])
        cache.put("q2", "r2", ["b"])
        cache.put("q3", "r3", ["c"])
        assert cache.get("q1") is None  # the oldest went first
        assert cache.get("q2") is not None
        assert cache.get("q3") is not None
        assert cache.stats.evictions == 1

    def test_overwriting_a_key_does_not_evict_others(self):
        cache = SummaryVersionCache(max_entries=2)
        cache.put("q1", "r1", ["a"])
        cache.put("q1", "r1-new", ["a"])
        cache.put("q2", "r2", ["b"])
        assert cache.get("q1").response == "r1-new"
        assert cache.get("q2") is not None
        assert cache.stats.evictions == 0

    def test_clear_keeps_versions_monotone(self):
        cache = SummaryVersionCache()
        cache.put("q", "r", ["a"])
        cache.invalidate(["a"])
        cache.clear()
        assert cache.version("a") == 1
        assert len(cache) == 0

    def test_clear_counts_the_dropped_entries_as_evictions(self):
        cache = SummaryVersionCache()
        cache.put("q1", "r1", ["a"])
        cache.put("q2", "r2", ["b"])
        cache.clear()
        assert cache.stats.evictions == 2
        # An empty clear drops nothing and must not inflate the counter.
        cache.clear()
        assert cache.stats.evictions == 2

    def test_fingerprint_deduplicates_repeated_dependencies(self):
        cache = SummaryVersionCache()
        assert cache.fingerprint(["a", "a", "b"]) == cache.fingerprint(["a", "b"])
        assert cache.fingerprint(["b", "a", "b"]) == (("a", 0), ("b", 0))
        # A duplicated dependency list must not widen the stored entry's
        # fingerprint (or every revalidation scan would re-check it).
        entry = cache.put("q", "r", ["a", "b", "a"])
        assert entry.fingerprint == (("a", 0), ("b", 0))

    def test_stats_hit_rate(self):
        cache = SummaryVersionCache()
        assert cache.stats.hit_rate() == 0.0
        cache.put("q", "r", ["a"])
        cache.get("q")
        cache.get("other")
        assert cache.stats.hit_rate() == pytest.approx(1 / 2)

    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError):
            SummaryVersionCache(max_entries=0)


# ------------------------------------------------- randomized schedules


@pytest.mark.parametrize("schedule_seed", [1, 2, 3])
@pytest.mark.parametrize("n_shards", [0, 4])
def test_cached_reads_match_fresh_recompute_under_any_schedule(
    schedule_seed, n_shards
):
    """The property: for a random interleaving of intake batches,
    maintenance cycles, and queries, ``query()`` (cached) renders exactly
    what ``query_uncached()`` (fresh recompute) renders, every time."""
    gen = make_rng(schedule_seed, "test/serve-schedule")
    traffic = SyntheticTraffic(TRAFFIC)
    server = make_server(n_shards=n_shards, catalog=traffic.catalog)
    serving = server.serving
    queries = SyntheticQueries(
        traffic.catalog, QueryWorkload(n_distinct=24, seed=schedule_seed)
    )
    now = 100.0
    checked = 0
    for _ in range(30):
        action = int(gen.integers(0, 3))
        if action == 0:
            server.receive_all(
                traffic.batch(int(gen.integers(20, 200)), now), now=now
            )
            now += 600.0
        elif action == 1:
            server.run_maintenance(now=now)
            now += 60.0
        else:
            for query in queries.batch(int(gen.integers(1, 6))):
                cached = serving.query(query).render()
                fresh = serving.query_uncached(query).render()
                assert cached == fresh, query
                checked += 1
    # The schedule actually exercised the interesting interleavings.
    assert checked > 10
    assert serving.stats.hits > 0
    assert serving.stats.invalidations + serving.stats.misses > 0


def test_warm_entries_survive_maintenance_that_changes_nothing_relevant():
    """Maintenance only evicts entries whose dependencies changed: warm
    results for an untouched category keep serving from cache."""
    traffic = SyntheticTraffic(TRAFFIC)
    server = make_server(catalog=traffic.catalog)
    server.receive_all(traffic.batch(600, 100.0), now=100.0)
    server.run_maintenance(now=200.0)
    query = ServeQuery(category="thai", near=Point(2.0, 1.0), radius_km=6.0)
    first = server.query(query)
    # A no-op cycle (nothing dirty) must not disturb the cache.
    server.run_maintenance(now=300.0)
    assert server.serving.stats.hits == 0
    again = server.query(query)
    assert server.serving.stats.hits == 1
    assert again.render() == first.render()


# ---------------------------------------------- claimed-entity regression


class _FlippingDetector(FraudDetector):
    """A detector with a controlled verdict: accept everything until a
    history is *armed*, then reject exactly that one.  Driving the flip
    through the detector keeps the whole cascade (judge → flip →
    ``_claimed_by`` → notification) on the production path."""

    armed: set[str] = set()

    def judge(self, history):
        flags = (
            (FraudFlag.REGULARITY,)
            if history.history_id in self.armed
            else ()
        )
        return HistoryVerdict(
            history_id=history.history_id,
            entity_id=history.entity_id,
            n_interactions=history.n_interactions,
            flags=flags,
            judged=True,
        )


def interaction(history_id, entity_id, event_time):
    return InteractionUpload(
        history_id=history_id,
        entity_id=entity_id,
        interaction_type="visit",
        event_time=event_time,
        duration=1800.0,
        travel_km=2.0,
    )


def plumbers(n=2):
    """Entities of another kind, far from every query below."""
    return [
        Entity(
            entity_id=f"plumber-{index}",
            kind=EntityKind.PLUMBER,
            category="plumber",
            location=Point(30.0 + index, 30.0),
            quality=3.0,
        )
        for index in range(n)
    ]


def settle(server, entities):
    """Give ``entities`` maintained histories before the test's own cycles.

    A cycle that tracks at least half of the entities with histories runs
    the pooled kernel, which judges without the engine's detector.  With
    two settled entities of another kind, dirtying one restaurant stays on
    the engine's serial path — the path the patched detector drives.
    """
    deliver_records(
        server,
        [interaction(f"h-{e.entity_id}", e.entity_id, 100.0) for e in entities],
        now=200.0,
        start_nonce=1000,
    )
    server.run_maintenance(now=300.0)


def test_flipped_history_evicts_the_claimed_entitys_cached_results(
    monkeypatch,
):
    """Regression: the invalidation feed is ``summarize_tracked`` — dirty
    entities *plus* entities claimed by flipped histories.  A history
    owned by A whose opinion slot claims B must, when it flips, evict
    cached results that depend on B even though B was never dirtied by
    the second cycle's intake (B's summary-key presence changes with the
    claim's survival, so a cached B result is no longer trustworthy)."""
    monkeypatch.setattr(
        "repro.service.incremental.FraudDetector", _FlippingDetector
    )
    _FlippingDetector.armed = set()
    owner = Entity(
        entity_id="thai-owner",
        kind=EntityKind.RESTAURANT,
        category="thai",
        location=Point(2.0, 2.0),
        quality=3.0,
    )
    claimed = Entity(
        entity_id="sushi-claimed",
        kind=EntityKind.RESTAURANT,
        category="japanese",
        location=Point(6.0, 2.0),
        quality=3.0,
    )
    fillers = plumbers()
    server = make_server(catalog=[owner, claimed, *fillers])
    settle(server, fillers)
    notified: list[frozenset] = []
    server._engine.subscribe(notified.append)
    deliver_records(
        server,
        [interaction("h-cross", owner.entity_id, 1000.0 * i) for i in range(4)]
        # The cross-entity claim: the slot names the *other* entity.
        + [
            OpinionUpload(
                history_id="h-cross",
                entity_id=claimed.entity_id,
                rating=5.0,
                seq=0,
            )
        ],
        now=5000.0,
    )
    server.run_maintenance(now=6000.0)
    assert claimed.entity_id in server.all_summaries()

    query = ServeQuery(
        category="japanese", near=claimed.location, radius_km=4.0
    )
    before = server.query(query)
    assert server.query(query) is before  # cached

    # Dirty only the owner, and arm the detector so its history flips.
    deliver_records(
        server,
        [interaction("h-cross", owner.entity_id, 6500.0)],
        now=7000.0,
        start_nonce=100,
    )
    _FlippingDetector.armed = {"h-cross"}
    version_before = server.serving.cache.version(claimed.entity_id)
    invalidations_before = server.serving.stats.invalidations
    server.run_maintenance(now=8000.0)

    # The cascade reached the claimed entity: it is in the notified set
    # of the second cycle despite never being dirtied by its intake, its
    # summary version advanced, and the cached entry was dropped.
    assert claimed.entity_id in notified[-1]
    assert server.serving.cache.version(claimed.entity_id) > version_before
    assert server.serving.stats.invalidations > invalidations_before
    assert claimed.entity_id not in server.all_summaries()  # key evicted

    misses_before = server.serving.stats.misses
    after = server.query(query)
    assert server.serving.stats.misses == misses_before + 1  # recomputed
    assert after.render() == server.serving.query_uncached(query).render()


def test_same_owner_flip_changes_the_served_answer(monkeypatch):
    """The visible half of the cascade: an opinion claiming its *own*
    history's entity shows up in the render, and a flip removes it from
    the next (recomputed) cached read."""
    monkeypatch.setattr(
        "repro.service.incremental.FraudDetector", _FlippingDetector
    )
    _FlippingDetector.armed = set()
    owner = Entity(
        entity_id="thai-owner",
        kind=EntityKind.RESTAURANT,
        category="thai",
        location=Point(2.0, 2.0),
        quality=3.0,
    )
    fillers = plumbers()
    server = make_server(catalog=[owner, *fillers])
    settle(server, fillers)
    deliver_records(
        server,
        [interaction("h-own", owner.entity_id, 1000.0 * i) for i in range(4)]
        + [
            OpinionUpload(
                history_id="h-own",
                entity_id=owner.entity_id,
                rating=5.0,
                seq=0,
            )
        ],
        now=5000.0,
    )
    server.run_maintenance(now=6000.0)
    query = ServeQuery(category="thai", near=owner.location, radius_km=4.0)
    before = server.query(query)
    assert "5.0* x1 inferred" in before.render()

    deliver_records(
        server,
        [interaction("h-own", owner.entity_id, 6500.0)],
        now=7000.0,
        start_nonce=100,
    )
    _FlippingDetector.armed = {"h-own"}
    server.run_maintenance(now=8000.0)
    after = server.query(query)
    assert "5.0* x1 inferred" not in after.render()
    assert "no inferences" in after.render()
    assert after.render() == server.serving.query_uncached(query).render()
