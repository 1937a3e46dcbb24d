"""Tests for raw trace types and stay-point extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensing.location import (
    StayPointConfig,
    StayPointFold,
    extract_stay_points,
)
from repro.sensing.traces import (
    CallRecord,
    DeviceTrace,
    LocationColumns,
    LocationSample,
    PaymentRecord,
)
from repro.world.geography import Point


def fixes_at(point, start, count, interval=300.0, jitter=0.0):
    return [
        LocationSample(time=start + i * interval, point=Point(point.x + jitter, point.y))
        for i in range(count)
    ]


class TestTraceTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocationSample(time=0, point=Point(0, 0), accuracy_km=-1)
        with pytest.raises(ValueError):
            CallRecord(time=0, number="x", duration=-1)
        with pytest.raises(ValueError):
            PaymentRecord(time=0, merchant_name="m", amount=-1)

    def test_sort_orders_all_streams(self):
        trace = DeviceTrace(
            user_id="u",
            locations=[
                LocationSample(time=5, point=Point(0, 0)),
                LocationSample(time=1, point=Point(0, 0)),
            ],
            call_records=[
                CallRecord(time=9, number="a", duration=1),
                CallRecord(time=2, number="b", duration=1),
            ],
        )
        trace.sort()
        assert trace.location_samples[0].time == 1
        assert trace.call_records[0].time == 2

    def test_sort_is_stable(self):
        """Fixes at equal times keep their order, as ``list.sort`` keeps it."""
        samples = [
            LocationSample(time=float(t), point=Point(float(i), 0.0))
            for i, t in enumerate([3, 1, 3, 2, 1, 3])
        ]
        trace = DeviceTrace("u", samples)
        trace.sort()
        assert trace.location_samples == sorted(samples, key=lambda s: s.time)

    def test_span(self):
        trace = DeviceTrace(user_id="u")
        assert trace.span == 0.0
        trace = DeviceTrace("u", fixes_at(Point(1, 1), 100.0, 3))
        assert trace.span == 600.0


class TestLocationColumns:
    def test_samples_round_trip(self):
        samples = fixes_at(Point(1.5, 2.25), 10.0, 4, jitter=1e-9)
        columns = LocationColumns.of(samples)
        assert len(columns) == 4
        assert columns.samples() == samples
        assert DeviceTrace("u", samples).locations == columns
        assert columns[1:3].samples() == samples[1:3]
        assert columns.point(2) == samples[2].point

    def test_view_and_columns_are_read_only(self):
        trace = DeviceTrace("u", fixes_at(Point(1, 1), 0.0, 3))
        with pytest.raises(AttributeError):
            trace.location_samples = []
        with pytest.raises(ValueError):
            trace.locations.x[0] = 9.0
        trace.location_samples.clear()
        assert trace.n_gps_fixes == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            LocationColumns([0.0], [0.0], [0.0], accuracy_km=-1)
        with pytest.raises(ValueError):
            LocationColumns([0.0, 1.0], [0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            LocationColumns.of(
                [
                    LocationSample(0.0, Point(0, 0), accuracy_km=0.03),
                    LocationSample(1.0, Point(0, 0), accuracy_km=0.5),
                ]
            )
        with pytest.raises(TypeError):
            LocationColumns([0.0], [0.0], [0.0])[0]

    def test_equality(self):
        a = LocationColumns([0.0, 1.0], [2.0, 3.0], [4.0, 5.0])
        assert a == LocationColumns([0.0, 1.0], [2.0, 3.0], [4.0, 5.0])
        assert a != LocationColumns([0.0, 1.0], [2.0, 3.0], [4.0, 6.0])
        assert a != LocationColumns([0.0, 1.0], [2.0, 3.0], [4.0, 5.0], accuracy_km=0.5)
        assert a != a.samples()
        assert "2 fixes" in repr(a)


class TestStayPointExtraction:
    def test_single_dwell_detected(self):
        samples = fixes_at(Point(5, 5), 0.0, 5)
        stays = extract_stay_points(samples)
        assert len(stays) == 1
        assert stays[0].duration == 1200.0
        assert stays[0].center.distance_to(Point(5, 5)) < 0.01

    def test_short_dwell_filtered(self):
        samples = fixes_at(Point(5, 5), 0.0, 2, interval=100.0)  # 100s dwell
        assert extract_stay_points(samples) == []

    def test_two_separate_dwells(self):
        samples = fixes_at(Point(1, 1), 0.0, 4) + fixes_at(Point(9, 9), 10_000.0, 4)
        stays = extract_stay_points(samples)
        assert len(stays) == 2
        assert stays[0].center.distance_to(Point(1, 1)) < 0.01
        assert stays[1].center.distance_to(Point(9, 9)) < 0.01

    def test_noise_within_radius_clusters(self):
        base = Point(3, 3)
        samples = []
        offsets = [0.0, 0.04, -0.04, 0.02, -0.02]
        for i, off in enumerate(offsets):
            samples.append(
                LocationSample(time=i * 300.0, point=Point(base.x + off, base.y - off))
            )
        stays = extract_stay_points(samples)
        assert len(stays) == 1

    def test_travel_samples_do_not_form_stays(self):
        # A straight-line pass through: each fix 0.5 km from the last.
        samples = [
            LocationSample(time=i * 60.0, point=Point(i * 0.5, 0.0)) for i in range(20)
        ]
        assert extract_stay_points(samples) == []

    def test_unordered_samples_rejected(self):
        samples = [
            LocationSample(time=100.0, point=Point(0, 0)),
            LocationSample(time=50.0, point=Point(0, 0)),
        ]
        with pytest.raises(ValueError):
            extract_stay_points(samples)

    def test_empty_input(self):
        assert extract_stay_points([]) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StayPointConfig(radius_km=0)
        with pytest.raises(ValueError):
            StayPointConfig(min_duration=0)
        with pytest.raises(ValueError):
            StayPointConfig(min_samples=0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=20),
                st.floats(min_value=0, max_value=20),
            ),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_stays_are_time_ordered_and_disjoint(self, coords):
        samples = [
            LocationSample(time=i * 240.0, point=Point(x, y))
            for i, (x, y) in enumerate(coords)
        ]
        stays = extract_stay_points(samples)
        for a, b in zip(stays, stays[1:]):
            assert a.end <= b.start

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=5000),
                st.floats(min_value=0, max_value=2),
                st.floats(min_value=0, max_value=2),
            ),
            min_size=0,
            max_size=60,
        ),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_samples_and_columns_reach_one_fold(self, steps, cut):
        """Extraction from sample objects equals the column fold over the
        same stream, folded whole or in two parts; every value is a float."""
        samples, t = [], 0.0
        for dt, x, y in steps:
            t += dt
            samples.append(LocationSample(time=t, point=Point(x, y)))
        columns = LocationColumns.of(samples)
        fold = StayPointFold()
        fold.extend(columns[:cut])
        fold.extend(columns[cut:])
        stays = extract_stay_points(samples)
        assert fold.stays() == stays == extract_stay_points(columns)
        assert fold.n_folded == len(samples)
        for stay in stays:
            values = (stay.center.x, stay.center.y, stay.start, stay.end, stay.duration)
            assert all(type(value) is float for value in values)
        if samples:
            assert fold.first_point == samples[0].point
            assert type(fold.first_point.x) is float and type(fold.first_point.y) is float
