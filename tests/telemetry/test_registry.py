"""Unit tests for the telemetry core: labels, instruments, facade, dashboard."""

import math

import numpy as np
import pytest

from repro.telemetry import (
    AGGREGATE,
    DEPLOYMENT,
    NULL,
    LabelPolicyError,
    MetricError,
    MetricsRegistry,
    SpanTimeline,
    Telemetry,
)
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.labels import canonical_labels, format_labels, validate_label
from repro.telemetry.registry import SUM_SCALE, Counter, Gauge, Histogram


class TestLabelPolicy:
    def test_allowed_keys_and_token_values(self):
        assert validate_label("reason", "token") == "token"
        assert validate_label("epoch", 3) == "3"
        assert validate_label("shard", 0) == "0"

    def test_unknown_key_rejected(self):
        with pytest.raises(LabelPolicyError, match="aggregate-label vocabulary"):
            validate_label("user", "u-1")

    def test_long_value_rejected(self):
        with pytest.raises(LabelPolicyError, match="exceeds 24 characters"):
            validate_label("reason", "x" * 25)

    def test_hash_shaped_value_rejected(self):
        # 16+ hex chars is the shape of hash(Ru, e) keys, nonces, and tags.
        with pytest.raises(LabelPolicyError, match="hex run"):
            validate_label("reason", "8e602d290266cd06")

    def test_bool_and_float_values_rejected(self):
        with pytest.raises(LabelPolicyError):
            validate_label("outcome", True)
        with pytest.raises(LabelPolicyError):
            validate_label("epoch", 1.5)

    def test_canonical_labels_sorted_and_rendered(self):
        labels = canonical_labels({"shard": 2, "epoch": 1})
        assert labels == (("epoch", "1"), ("shard", "2"))
        assert format_labels(labels) == "{epoch=1,shard=2}"


class TestCounter:
    def test_monotone_integer_only(self):
        counter = Counter()
        counter.inc(2)
        counter.inc()
        assert counter.value == 3
        with pytest.raises(MetricError):
            counter.inc(-1)
        with pytest.raises(MetricError):
            counter.inc(1.5)
        with pytest.raises(MetricError):
            counter.inc(True)

    def test_exact_int_fast_path_keeps_every_other_check(self):
        class Count(int):
            pass

        counter = Counter()
        for bad in (True, -1, 1.0, Count(-2), "1"):
            with pytest.raises(MetricError):
                counter.inc(bad)
        assert counter.value == 0
        counter.inc(Count(2))
        counter.inc(0)
        assert counter.value == 2 and type(counter.value) is int


class TestGauge:
    def test_each_set_bumps_the_exported_version(self):
        gauge = Gauge()
        assert gauge.snapshot() == {"version": 0, "value": 0.0}
        gauge.set(10.0)
        gauge.set(2)  # last writer wins; the value is stored as a float
        assert gauge.snapshot() == {"version": 2, "value": 2.0}


class TestHistogram:
    def test_bucketing_and_fixed_point_sum(self):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(0.5)
        h.observe(1.0)  # inclusive upper edge
        h.observe(7.0)
        h.observe(99.0)  # overflow bucket
        assert h.bucket_counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum_scaled == round(107.5 * SUM_SCALE)
        assert h.min == 0.5 and h.max == 99.0

    def test_first_observation_sets_min_and_max(self):
        h = Histogram(bounds=(1.0,))
        assert h.min is None and h.max is None
        h.observe(3)
        assert h.min == h.max == 3.0
        assert type(h.min) is float and type(h.max) is float

    def test_negative_values_track_min_and_max(self):
        h = Histogram(bounds=(0.0,))
        for value in (-2.5, -7.0, -0.5, -7.0, -1.0):
            h.observe(value)
        assert (h.min, h.max) == (-7.0, -0.5)

    def test_ties_keep_the_first_of_equals(self):
        # The export spells 0.0 and -0.0 differently, so a tie must keep
        # the value already held, as min()/max() would.
        h = Histogram(bounds=(1.0,))
        h.observe(0.0)
        h.observe(-0.0)
        assert math.copysign(1.0, h.min) == 1.0
        assert math.copysign(1.0, h.max) == 1.0
        h = Histogram(bounds=(1.0,))
        h.observe(-0.0)
        h.observe(0.0)
        assert math.copysign(1.0, h.min) == -1.0
        assert math.copysign(1.0, h.max) == -1.0

    def test_bounds_must_increase(self):
        with pytest.raises(MetricError):
            Histogram(bounds=(1.0, 1.0))

    def test_non_float_values_export_as_their_float(self):
        """Only an exact float skips the ``float()`` conversion; ints,
        NumPy scalars and float subclasses export what their ``float``
        value exports."""

        class Seconds(float):
            pass

        values = (3, np.float64(2.5), Seconds(0.0625), np.int64(7), -1, 0.5)
        raw, converted = MetricsRegistry(), MetricsRegistry()
        for value in values:
            raw.observe("rsp.intake.batch", value, buckets=(1.0, 5.0))
            converted.observe("rsp.intake.batch", float(value), buckets=(1.0, 5.0))
        assert raw.export_json() == converted.export_json()
        h = Histogram(bounds=(1.0,))
        h.observe(Seconds(4.0))
        h.observe(np.float64(-1.0))
        assert type(h.min) is float and type(h.max) is float


class TestRegistry:
    def test_declaration_fixed_at_first_use(self):
        registry = MetricsRegistry()
        registry.inc("rsp.envelopes.accepted")
        with pytest.raises(MetricError, match="is a counter"):
            registry.observe("rsp.envelopes.accepted", 1.0)
        with pytest.raises(MetricError, match="aggregate-scope"):
            registry.inc("rsp.envelopes.accepted", scope=DEPLOYMENT)

    def test_bound_instruments_record_what_inc_and_observe_record(self):
        bound, direct = MetricsRegistry(), MetricsRegistry()
        counter = bound.counter("rsp.envelopes.rejected", reason="token")
        histogram = bound.histogram("rsp.intake.batch", buckets=(1.0, 5.0))
        for value in (0.5, 3.0, 9.0):
            counter.inc()
            histogram.observe(value)
            direct.inc("rsp.envelopes.rejected", reason="token")
            direct.observe("rsp.intake.batch", value, buckets=(1.0, 5.0))
        assert bound.export_json() == direct.export_json()
        # Binding again returns the same instrument.
        assert bound.counter("rsp.envelopes.rejected", reason="token") is counter

    def test_binding_declares_the_metric(self):
        registry = MetricsRegistry()
        registry.counter("rsp.serve.queries")
        assert [row["name"] for row in registry.snapshot()] == ["rsp.serve.queries"]

    @pytest.mark.parametrize(
        "declare, conflict, match",
        [
            # kind: a counter bound as a histogram, and the reverse.
            (
                lambda r: r.inc("m"),
                lambda r: r.histogram("m"),
                "is a counter",
            ),
            (
                lambda r: r.histogram("m"),
                lambda r: r.counter("m"),
                "is a histogram",
            ),
            # scope: bound and recorded under different scopes.
            (
                lambda r: r.counter("m"),
                lambda r: r.inc("m", scope=DEPLOYMENT),
                "aggregate-scope",
            ),
            (
                lambda r: r.inc("m"),
                lambda r: r.counter("m", scope=DEPLOYMENT),
                "aggregate-scope",
            ),
            # buckets: fixed at first declaration, whichever path made it.
            (
                lambda r: r.observe("m", 1.0, buckets=(1.0, 2.0)),
                lambda r: r.histogram("m", buckets=(1.0, 3.0)),
                "fixed buckets",
            ),
            (
                lambda r: r.histogram("m", buckets=(1.0, 2.0)),
                lambda r: r.observe("m", 1.0, buckets=(1.0, 3.0)),
                "fixed buckets",
            ),
        ],
        ids=[
            "inc-then-histogram",
            "histogram-then-counter",
            "counter-then-inc-scope",
            "inc-then-counter-scope",
            "observe-then-histogram-buckets",
            "histogram-then-observe-buckets",
        ],
    )
    def test_binding_raises_the_declaration_errors(self, declare, conflict, match):
        registry = MetricsRegistry()
        declare(registry)
        with pytest.raises(MetricError, match=match):
            conflict(registry)

    def test_binding_validates_labels(self):
        with pytest.raises(LabelPolicyError):
            MetricsRegistry().counter("mix.submissions", user="u-1")

    def test_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.inc("rsp.envelopes.rejected", reason="token")
        registry.inc("rsp.envelopes.rejected", 2, reason="malformed")
        assert registry.total("rsp.envelopes.rejected") == 3
        assert registry.total("never.used") == 0
        registry.set_gauge("mix.queue_depth", 4)
        with pytest.raises(MetricError):
            registry.total("mix.queue_depth")

    def test_labels_validated_at_recording_time(self):
        registry = MetricsRegistry()
        with pytest.raises(LabelPolicyError):
            registry.inc("mix.submissions", entity_kind="chan-8e602d290266cd06")

    def test_export_is_canonical_and_scope_filtered(self):
        registry = MetricsRegistry()
        registry.inc("b.metric")
        registry.inc("a.metric", shard=1, scope=DEPLOYMENT)
        rows = registry.snapshot()
        assert [r["name"] for r in rows] == ["a.metric", "b.metric"]
        assert [r["name"] for r in registry.snapshot(scope=AGGREGATE)] == ["b.metric"]
        # The same events recorded in the other order export the same bytes.
        again = MetricsRegistry()
        again.inc("a.metric", shard=1, scope=DEPLOYMENT)
        again.inc("b.metric")
        assert registry.export_json() == again.export_json()
        assert registry.export_json(scope=AGGREGATE) == again.export_json(scope=AGGREGATE)


class TestSpans:
    def test_record_validates_and_sorts(self):
        timeline = SpanTimeline()
        timeline.record("epoch", 10.0, 20.0, epoch=2)
        timeline.record("epoch", 0.0, 10.0, epoch=1)
        assert [s.start for s in timeline.spans()] == [0.0, 10.0]
        assert timeline.spans("epoch")[0].duration == 10.0
        with pytest.raises(MetricError):
            timeline.record("epoch", 5.0, 1.0)

    def test_snapshot_scope_filter(self):
        timeline = SpanTimeline()
        timeline.record("maintenance", 0.0, 0.0)
        timeline.record("shard.maintenance", 0.0, 0.0, scope=DEPLOYMENT, shard=1)
        assert len(timeline.snapshot()) == 2
        assert len(timeline.snapshot(scope=AGGREGATE)) == 1


class TestNullTelemetry:
    def test_all_recording_is_a_noop(self):
        # NULL silently accepts even policy-violating labels: the policy
        # guards what gets *exported*, and NULL exports nothing.
        NULL.inc("anything", user="8e602d290266cd065079349721b76145")
        NULL.observe("anything.else", 1.0)
        NULL.set_gauge("g", 2.0)
        assert NULL.span("s", 0.0, 1.0) is None
        assert not NULL.enabled
        assert NULL.export() == {"metrics": [], "spans": []}

    def test_null_binds_one_noop_instrument(self):
        counter = NULL.counter("anything", user="8e602d290266cd065079349721b76145")
        histogram = NULL.histogram("anything.else", buckets=(1.0,), scope=DEPLOYMENT)
        assert counter is histogram
        counter.inc()
        histogram.observe(2.0)
        assert NULL.export() == {"metrics": [], "spans": []}


class TestDashboard:
    def test_renders_all_instrument_kinds(self):
        telemetry = Telemetry()
        telemetry.inc("rsp.envelopes.accepted", 5, record="interaction")
        telemetry.set_gauge("mix.queue_depth", 7)
        telemetry.observe("rsp.intake.batch", 3.0, buckets=(1.0, 5.0))
        telemetry.span("epoch", 0.0, 86400.0, epoch=1)
        text = render_dashboard(telemetry)
        assert "rsp.envelopes.accepted" in text
        assert "mix.queue_depth" in text
        assert "rsp.intake.batch" in text
        assert "epoch" in text

    def test_empty_dashboard(self):
        assert "no telemetry" in render_dashboard(Telemetry())
