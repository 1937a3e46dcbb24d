"""Cache coherence: a cached read can never differ from a fresh recompute.

Three layers of proof:

* unit pins on :class:`SummaryVersionCache` — eager eviction through
  interned dependency groups, FIFO eviction, and the stats counters —
  and a step-by-step comparison with a reference model that scans every
  entry on invalidation;
* a hand-rolled property sweep (hypothesis is deliberately not a
  dependency): randomized intake + maintenance + query schedules, drawn
  from the ``repro.util.rng`` discipline, asserting that at *every* point
  the cached ``query()`` render equals the ``query_uncached()`` oracle —
  including queries cached before an intake batch and re-read after it;
* the claimed-entity regression — a history flip must evict cached
  results for the entity its opinion slot *claims*, which need not be
  the entity that was dirty (the ``summarize_tracked`` cascade of
  :mod:`repro.service.incremental`).
"""

import numpy as np
import pytest

from repro.core.aggregation import OpinionUpload
from repro.fraud.detector import FraudFlag, HistoryVerdict
from repro.ingest import SyntheticTraffic
from repro.privacy.history_store import InteractionUpload
from repro.scale.kernel import FrameJudgement
from repro.serve.cache import SummaryVersionCache
from repro.serve.engine import QueryEngine, ServeQuery
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
        assert cache.get("q") == "response"
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert len(cache) == 1

    def test_invalidate_bumps_versions_and_drops_dependents(self):
        # An invalidation drops exactly the entries depending on a
        # changed entity, and counts them.
        cache = SummaryVersionCache()
        cache.put("q1", "r1", ["a", "b"])
        cache.put("q2", "r2", ["c"])
        assert cache.invalidate(["b"]) == 1
        assert len(cache) == 1
        assert cache.get("q1") is None  # dropped eagerly
        assert cache.get("q2") == "r2"  # untouched dependency set
        assert cache.stats.invalidations == 1

    def test_invalidating_an_uncached_entity_only_bumps_its_version(self):
        # An entity no entry depends on: nothing is dropped or counted.
        cache = SummaryVersionCache()
        cache.put("q", "r", ["a"])
        assert cache.invalidate(["ghost"]) == 0
        assert cache.stats.invalidations == 0
        assert len(cache) == 1

    def test_revalidation_restamps_an_untouched_entry(self):
        # An invalidation of an unrelated entity leaves the entry
        # hitting, as often as it is read.
        cache = SummaryVersionCache()
        cache.put("q", "r", ["a"])
        cache.invalidate(["other"])
        assert cache.get("q") == "r"
        assert cache.get("q") == "r"
        assert (cache.stats.hits, cache.stats.misses) == (2, 0)

    def test_one_fingerprint_per_group_and_generation(self):
        # Entries on one dependency set share one interned group, and one
        # invalidation reaching the group drops every entry on it.
        cache = SummaryVersionCache()
        shared, other = ("a", "b", "c"), ("d",)
        for index in range(5):
            cache.put(f"q{index}", f"r{index}", shared)
        cache.put("lone", "r", other)
        (group,) = cache._dependents["b"]
        assert cache._groups[shared] is group
        assert group.keys == {f"q{index}" for index in range(5)}
        assert cache.invalidate(["b"]) == 5
        assert group.keys == set()
        assert cache.get("lone") == "r"
        assert all(cache.get(f"q{index}") is None for index in range(5))
        assert (cache.stats.invalidations, len(cache)) == (5, 1)

    def test_fifo_eviction_at_capacity(self):
        cache = SummaryVersionCache(max_entries=2)
        cache.put("q1", "r1", ["a"])
        cache.put("q2", "r2", ["b"])
        cache.put("q3", "r3", ["c"])
        assert cache.get("q1") is None  # the oldest went first
        assert cache.get("q2") is not None
        assert cache.get("q3") is not None
        assert cache.stats.evictions == 1
        # The evicted entry left its group: invalidating it drops nothing.
        assert cache.invalidate(["a"]) == 0

    def test_overwriting_a_key_does_not_evict_others(self):
        cache = SummaryVersionCache(max_entries=2)
        cache.put("q1", "r1", ["a"])
        cache.put("q1", "r1-new", ["b"])
        cache.put("q2", "r2", ["c"])
        assert cache.get("q1") == "r1-new"
        assert cache.get("q2") is not None
        assert cache.stats.evictions == 0
        # The overwritten entry moved to its new dependency set.
        assert cache.invalidate(["a"]) == 0
        assert cache.invalidate(["b"]) == 1

    def test_fingerprint_deduplicates_repeated_dependencies(self):
        # A duplicated or reordered dependency list interns to the group
        # of its set, which each entity lists once.
        cache = SummaryVersionCache()
        cache.put("q1", "r1", ["a", "b", "a"])
        cache.put("q2", "r2", ["b", "a"])
        cache.put("q3", "r3", ("a", "b"))
        (group,) = cache._dependents["a"]
        assert cache._dependents["b"] == [group]
        assert cache._groups[("a", "b")] is group
        assert group.keys == {"q1", "q2", "q3"}
        assert cache.invalidate(["a"]) == 3

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


# ------------------------------------------------------ reference model


class CacheModel:
    """The cache's contract in plain Python, with no reverse map: a FIFO
    of ``key -> (response, dependency set)`` and an invalidation that
    scans every entry."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}
        self.hits = self.misses = self.invalidations = self.evictions = 0

    def get(self, key):
        if key not in self.entries:
            self.misses += 1
            return None
        self.hits += 1
        return self.entries[key]

    def put(self, key, response, dependency_ids):
        self.entries.pop(key, None)
        while len(self.entries) >= self.capacity:
            del self.entries[next(iter(self.entries))]
            self.evictions += 1
        self.entries[key] = (response, frozenset(dependency_ids))

    def invalidate(self, changed_ids):
        changed = set(changed_ids)
        doomed = [key for key, (_, deps) in self.entries.items() if deps & changed]
        for key in doomed:
            del self.entries[key]
        self.invalidations += len(doomed)
        return len(doomed)


ENTITIES = [f"e{index}" for index in range(10)]
#: Overlapping dependency sets, so several keys share one set and every
#: entity sits in more than one; the tuples are reused objects, as the
#: index hands them out.
SHARED_DEPENDENCIES = [
    tuple(ENTITIES[:4]),
    tuple(ENTITIES[2:7]),
    tuple(ENTITIES[5:]),
    ("e1", "e8"),
    (),
]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("capacity", range(1, 9))
def test_cache_matches_the_reference_model(capacity, seed):
    gen = make_rng(seed, f"test/serve-cache-model/{capacity}")
    cache, model = SummaryVersionCache(max_entries=capacity), CacheModel(capacity)
    keys = [f"q{index}" for index in range(12)]

    def stats():
        s = cache.stats
        return (s.hits, s.misses, s.invalidations, s.evictions, len(cache))

    for step in range(400):
        roll = float(gen.random())
        key = keys[int(gen.integers(0, len(keys)))]
        if roll < 0.4:
            if gen.random() < 0.6:
                deps = SHARED_DEPENDENCIES[int(gen.integers(0, len(SHARED_DEPENDENCIES)))]
            else:
                # A fresh list, duplicates and all.
                deps = [
                    ENTITIES[int(i)]
                    for i in gen.integers(0, len(ENTITIES), size=int(gen.integers(0, 6)))
                ]
            response = f"r{step}"
            cache.put(key, response, deps)
            model.put(key, response, deps)
        elif roll < 0.75:
            response, expected = cache.get(key), model.get(key)
            if expected is None:
                assert response is None, (step, key)
            else:
                assert response == expected[0], (step, key)
        else:
            changed = [
                ENTITIES[int(i)]
                for i in gen.integers(0, len(ENTITIES), size=int(gen.integers(0, 4)))
            ]
            assert cache.invalidate(changed) == model.invalidate(changed), step
        assert stats() == (
            model.hits,
            model.misses,
            model.invalidations,
            model.evictions,
            len(model.entries),
        ), step


# ------------------------------------------------- randomized schedules


@pytest.mark.parametrize("schedule_seed", [1, 2, 3])
@pytest.mark.parametrize("n_shards", [0, 4])
def test_cached_reads_match_fresh_recompute_under_any_schedule(
    schedule_seed, n_shards
):
    """The property: for a random interleaving of intake batches,
    maintenance cycles, and queries, ``query()`` (cached) renders exactly
    what ``query_uncached()`` (fresh recompute) renders, every time —
    also for every query already cached when an intake batch lands, which
    is re-read right after it."""
    gen = make_rng(schedule_seed, "test/serve-schedule")
    traffic = SyntheticTraffic(TRAFFIC)
    server = make_server(n_shards=n_shards, catalog=traffic.catalog)
    serving = server.serving
    queries = SyntheticQueries(
        traffic.catalog, QueryWorkload(n_distinct=24, seed=schedule_seed)
    )
    now = 100.0
    checked = 0
    asked: list[ServeQuery] = []

    def check(batch):
        nonlocal checked
        published = server._engine
        for query in batch:
            cached = serving.query(query).render()
            fresh = serving.query_uncached(query).render()
            # ``query_uncached`` shares the serving engine's memos; a new
            # engine starts with none, so it also catches a stale memo.
            unmemoized = (
                QueryEngine(serving.index, serving.engine.ranking)
                .respond(query, published.summaries, published.panels)
                .render()
            )
            assert cached == fresh == unmemoized, query
            checked += 1

    for _ in range(30):
        action = int(gen.integers(0, 3))
        if action == 0:
            server.receive_all(
                traffic.batch(int(gen.integers(20, 200)), now), now=now
            )
            now += 600.0
            check(dict.fromkeys(asked))
        elif action == 1:
            server.run_maintenance(now=now)
            now += 60.0
        else:
            batch = queries.batch(int(gen.integers(1, 6)))
            check(batch)
            asked.extend(batch)
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


class _FlippingJudge:
    """A judge with a controlled verdict: accept everything until a
    history is *armed*, then reject exactly that one.  Patched in as the
    engine's one judging seam (``judge_frame``), it drives the flip
    through the whole cascade (judge → flip → claimed entity →
    notification) on the production path."""

    armed: set[str] = set()

    @classmethod
    def judge_frame(cls, frame, profiles, config=None):
        suspicious = np.array(
            [history_id in cls.armed for history_id in frame.hist_ids], dtype=bool
        )
        verdicts = [
            HistoryVerdict(
                history_id=history.history_id,
                entity_id=history.entity_id,
                n_interactions=history.n_interactions,
                flags=(FraudFlag.REGULARITY,),
                judged=True,
            )
            for history, flagged in zip(frame.histories, suspicious)
            if flagged
        ]
        return FrameJudgement(suspicious=suspicious, verdicts=verdicts)


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

    The settled entities are of another kind, so the test's later cycles
    track only part of the deployment and reuse the rest from cache.
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
        "repro.service.incremental.judge_frame", _FlippingJudge.judge_frame
    )
    _FlippingJudge.armed = set()
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
    _FlippingJudge.armed = {"h-cross"}
    invalidations_before = server.serving.stats.invalidations
    server.run_maintenance(now=8000.0)

    # The cascade reached the claimed entity: it is in the notified set
    # of the second cycle despite never being dirtied by its intake, and
    # the cached entry was dropped.
    assert claimed.entity_id in notified[-1]
    assert query not in server.serving.cache._entries
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
        "repro.service.incremental.judge_frame", _FlippingJudge.judge_frame
    )
    _FlippingJudge.armed = set()
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
    _FlippingJudge.armed = {"h-own"}
    server.run_maintenance(now=8000.0)
    after = server.query(query)
    assert "5.0* x1 inferred" not in after.render()
    assert "no inferences" in after.render()
    assert after.render() == server.serving.query_uncached(query).render()


def test_a_flip_without_intake_republishes_the_owners_panels(monkeypatch):
    """Panels are republished for every entity whose accepted histories
    may change, not only the dirty ones: intake at another restaurant
    moves the kind's profile, the owner is re-judged without intake of
    its own, its only history flips, and the next read shows the owner's
    panels without that history."""
    monkeypatch.setattr(
        "repro.service.incremental.judge_frame", _FlippingJudge.judge_frame
    )
    _FlippingJudge.armed = set()
    owner, other = (
        Entity(
            entity_id=f"thai-{name}",
            kind=EntityKind.RESTAURANT,
            category="thai",
            location=location,
            quality=3.0,
        )
        for name, location in (("owner", Point(2.0, 2.0)), ("other", Point(20.0, 20.0)))
    )
    # Four settled fillers stay cached through both cycles.
    fillers = plumbers(4)
    server = make_server(catalog=[owner, other, *fillers])
    settle(server, fillers)
    deliver_records(
        server,
        [interaction("h-own", owner.entity_id, 1000.0 * i) for i in range(4)],
        now=5000.0,
    )
    server.run_maintenance(now=6000.0)
    query = ServeQuery(category="thai", near=owner.location, radius_km=1.0)
    assert server.query(query).visualization.histograms[owner.entity_id].n_users == 1

    deliver_records(
        server,
        [interaction("h-other", other.entity_id, 500.0 * i) for i in range(3)],
        now=7000.0,
        start_nonce=100,
    )
    _FlippingJudge.armed = {"h-own"}
    server.run_maintenance(now=8000.0)
    assert owner.entity_id not in server._engine.accepted  # the flip happened
    after = server.query(query)
    assert after.visualization.histograms[owner.entity_id].n_users == 0
    assert after.render() == server.serving.query_uncached(query).render()
