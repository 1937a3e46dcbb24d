"""Property tests: telemetry merge is commutative, associative, identity-safe.

Hand-rolled generators over ``repro.util.rng``, mirroring
``tests/scale/test_merge_properties.py``: histogram observations use
dyadic rationals (k/16), for which both the fixed-point sum and min/max
are exact, so every property is asserted as byte-equality of the
canonical export — not approximation.  The partition property is the one
the sharded deployment leans on: a stream of events split across any
number of per-shard registries and folded in any order must export the
same bytes as one registry that saw everything.
"""

from repro.telemetry import DEPLOYMENT, MetricsRegistry, SpanTimeline, Telemetry
from repro.util.rng import make_rng

from repro.telemetry.catalog import INTAKE_BATCH_BUCKETS

#: Closed pools the generators draw from (labels must satisfy the policy).
COUNTER_NAMES = ("rsp.envelopes.accepted", "mix.dropped", "client.retransmissions")
REASONS = ("token", "malformed", "unknown-entity")
GAUGE_NAMES = ("mix.queue_depth", "rsp.maintenance.histories")
HISTOGRAM_NAMES = ("rsp.intake.batch", "mix.batch_size")
SPAN_NAMES = ("epoch", "maintenance")


def dyadic(rng, low=0, high=16 * 4096):
    """A float that IEEE-754 addition treats exactly: k/16."""
    return float(int(rng.integers(low, high))) / 16.0


def random_event(rng):
    """One recording action, replayable against any registry."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        name = COUNTER_NAMES[int(rng.integers(0, len(COUNTER_NAMES)))]
        reason = REASONS[int(rng.integers(0, len(REASONS)))]
        n = int(rng.integers(1, 5))
        return ("inc", name, n, {"reason": reason})
    if kind == 1:
        name = GAUGE_NAMES[int(rng.integers(0, len(GAUGE_NAMES)))]
        return ("set_gauge", name, dyadic(rng), {})
    if kind == 2:
        name = HISTOGRAM_NAMES[int(rng.integers(0, len(HISTOGRAM_NAMES)))]
        return ("observe", name, dyadic(rng, high=16 * 600), {})
    start = dyadic(rng)
    name = SPAN_NAMES[int(rng.integers(0, len(SPAN_NAMES)))]
    return ("span", name, (start, start + dyadic(rng)), {"epoch": int(rng.integers(1, 9))})


def apply_event(telemetry, event):
    action, name, value, labels = event
    if action == "inc":
        telemetry.inc(name, value, **labels)
    elif action == "set_gauge":
        telemetry.set_gauge(name, value, **labels)
    elif action == "observe":
        telemetry.observe(name, value, buckets=INTAKE_BATCH_BUCKETS, **labels)
    else:
        telemetry.span(name, value[0], value[1], **labels)


def random_telemetry(rng, n_events=40):
    telemetry = Telemetry()
    for _ in range(int(rng.integers(1, n_events))):
        apply_event(telemetry, random_event(rng))
    return telemetry


class TestMergeAlgebra:
    def test_commutative(self):
        rng = make_rng(1, "telemetry/test/merge-comm")
        for _ in range(50):
            a, b = random_telemetry(rng), random_telemetry(rng)
            assert a.merged(b).export_json() == b.merged(a).export_json()

    def test_associative(self):
        rng = make_rng(2, "telemetry/test/merge-assoc")
        for _ in range(50):
            a, b, c = (random_telemetry(rng) for _ in range(3))
            left = a.merged(b).merged(c)
            right = a.merged(b.merged(c))
            assert left.export_json() == right.export_json()

    def test_empty_is_identity(self):
        rng = make_rng(3, "telemetry/test/merge-identity")
        for _ in range(20):
            a = random_telemetry(rng)
            assert a.merged(Telemetry()).export_json() == a.export_json()
            assert Telemetry().merged(a).export_json() == a.export_json()

    def test_merge_does_not_mutate_inputs(self):
        rng = make_rng(4, "telemetry/test/merge-pure")
        a, b = random_telemetry(rng), random_telemetry(rng)
        before_a, before_b = a.export_json(), b.export_json()
        a.merged(b)
        assert a.export_json() == before_a
        assert b.export_json() == before_b


class TestPartitionInvariance:
    """Splitting one event stream across shards must not change the export."""

    def partition_digests(self, seed, n_shards):
        rng = make_rng(seed, "telemetry/test/partition")
        # Counters, histograms, and spans are exactly partition-invariant.
        # Gauges are last-writer-wins with per-registry versions, so they
        # are excluded: deployments set gauges from merged state only
        # (see run_maintenance), never from per-shard partial state.
        events = [
            e for e in (random_event(rng) for _ in range(200)) if e[0] != "set_gauge"
        ]
        whole = Telemetry()
        for event in events:
            apply_event(whole, event)
        shards = [Telemetry() for _ in range(n_shards)]
        for index, event in enumerate(events):
            apply_event(shards[index % n_shards], event)
        folded = shards[0].merged(*shards[1:])
        return whole.export_json(), folded.export_json()

    def test_invariant_under_shard_count(self):
        for n_shards in (1, 2, 4, 8):
            whole, folded = self.partition_digests(seed=5, n_shards=n_shards)
            assert whole == folded

    def test_fold_order_irrelevant(self):
        rng = make_rng(6, "telemetry/test/fold-order")
        parts = [random_telemetry(rng) for _ in range(5)]
        forward = parts[0].merged(*parts[1:])
        backward = parts[-1].merged(*parts[-2::-1])
        assert forward.export_json() == backward.export_json()


class TestRegistryAndTimelineMerge:
    def test_registry_merge_creates_missing_instruments(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.inc("rsp.envelopes.accepted", 3)
        b.inc("rsp.reshard.splits", scope=DEPLOYMENT)
        a.merge_from(b)
        assert a.total("rsp.envelopes.accepted") == 3
        assert a.export_json() == b.export_json()

    def test_timeline_merge_concatenates_and_resorts(self):
        a, b = SpanTimeline(), SpanTimeline()
        a.record("epoch", 10.0, 20.0)
        b.record("epoch", 0.0, 10.0)
        merged = a.merged(b)
        assert [s.start for s in merged.spans()] == [0.0, 10.0]
        assert merged.export_json() == b.merged(a).export_json()
