"""Self-time arithmetic, target wrapping, and layer metrics from spans."""

from __future__ import annotations

import sys
import types

import pytest

from bench.layers import layer_metrics
from bench.trace import ROOT, Target, Tracer, self_time_by_name, self_times


def test_self_time_subtracts_nested_children():
    #   root [0, 10]
    #     a [1, 4]      b [5, 9]
    #       c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [ROOT, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # Children [1, 5] and [3, 7] overlap; [9, 12] sticks out of [0, 10].
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [ROOT, 0, 0, 0]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1:] == pytest.approx([4.0, 4.0, 3.0])


def test_self_time_never_negative():
    assert self_times([0.0, 0.0], [1.0, 2.0], [ROOT, 0]) == pytest.approx([0.0, 2.0])


@pytest.fixture
def fake_program(monkeypatch):
    module = types.ModuleType("fake_program")

    class Thing:
        def method(self, n):
            return list(range(n))

    def outer(n):
        return Thing().method(n)

    module.Thing = Thing
    module.outer = outer
    monkeypatch.setitem(sys.modules, "fake_program", module)
    return module


def test_tracer_wraps_records_nesting_and_restores(fake_program):
    original_outer = fake_program.outer
    original_method = fake_program.Thing.__dict__["method"]
    counted = []
    tracer = Tracer(
        [
            Target("fake_program.outer", "layer_a.outer"),
            Target(
                "fake_program.Thing.method",
                "layer_b.method",
                after=lambda tracer, index, token, args, kwargs, result: counted.append(result),
            ),
            Target("fake_program.gone", "layer_c.gone"),
            Target("fake_program.Thing.gone", "layer_c.gone"),
        ]
    )
    tracer.install()
    try:
        assert tracer.missing == ["fake_program.gone", "fake_program.Thing.gone"]
        fake_program.outer(2)  # outside any segment: not recorded
        assert len(tracer) == 0
        tracer.request = 7
        with tracer.segment("run"):
            assert fake_program.outer(3) == [0, 1, 2]
    finally:
        tracer.uninstall()
    assert fake_program.outer is original_outer
    assert fake_program.Thing.__dict__["method"] is original_method
    assert [tracer.name_of(i) for i in range(len(tracer))] == [
        "bench.run",
        "layer_a.outer",
        "layer_b.method",
    ]
    assert list(tracer.parents) == [ROOT, 0, 1]
    assert list(tracer.requests) == [7, 7, 7]
    assert counted == [[0, 1, 2]]
    own = self_time_by_name(tracer)
    assert sum(own.values()) == pytest.approx(tracer.duration(0))


def test_layer_metrics_coverage_and_hit_miss_split():
    tracer = Tracer()
    run = tracer.add("bench.run", 0.0, 10.0)
    hit = tracer.add("serve.query", 1.0, 2.0, parent=run)
    miss = tracer.add("serve.query", 3.0, 7.0, parent=run)
    tracer.add("serve.fill", 5.0, 6.0, parent=miss)
    tracer.add("service.maintenance", 8.0, 9.5, parent=run)
    metrics = layer_metrics(tracer, {})
    assert metrics["trace.coverage"] == pytest.approx(6.5 / 10.0)
    assert metrics["serve.queries"] == 2
    assert metrics["serve.hit_rate"] == pytest.approx(0.5)
    assert metrics["serve.hit_p50_us"] == pytest.approx(tracer.duration(hit) * 1e6)
    assert metrics["serve.miss_p50_us"] == pytest.approx(4.0e6)
    assert metrics["serve.busy_s"] == pytest.approx(5.0)
    assert metrics["service.maintenance_s"] == pytest.approx(1.5)
    # A layer that never ran reads 0, and no ratio divides by zero.
    assert metrics["privacy.us_per_token"] == 0.0
    assert metrics["orchestration.epoch_growth"] == 0.0


def test_epoch_metrics_from_boundaries():
    tracer = Tracer()
    run = tracer.add("bench.run", 0.0, 10.0)
    tracer.add("sensing.trace", 1.0, 1.5, parent=run)
    tracer.samples["orchestration.epoch_end"].extend([2.0, 4.0, 8.0])
    metrics = layer_metrics(tracer, {})
    assert metrics["orchestration.epoch_first_s"] == pytest.approx(1.0)
    assert metrics["orchestration.epoch_last_s"] == pytest.approx(4.0)
    assert metrics["orchestration.epoch_growth"] == pytest.approx(4.0)
