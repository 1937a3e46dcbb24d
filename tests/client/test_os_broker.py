"""Tests for the OS privacy broker (Section 5 trust model)."""

import pytest

from repro.client.os_broker import (
    EgressViolation,
    OSPrivacyBroker,
    Tainted,
    contains_sensitive,
)
from repro.core.protocol import Envelope
from repro.privacy.history_store import InteractionUpload
from repro.sensing.resolution import EntityResolver, InteractionType
from repro.sensing.sensors import generate_trace
from repro.sensing.traces import CallRecord, DeviceTrace, LocationSample
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.geography import Point
from repro.world.population import TownConfig, build_town


def raw_sample():
    return LocationSample(time=0.0, point=Point(1, 2))


class TestContainsSensitive:
    def test_detects_raw_types(self):
        assert contains_sensitive(raw_sample())
        assert contains_sensitive(CallRecord(time=0, number="x", duration=1))
        assert contains_sensitive(DeviceTrace(user_id="u"))
        assert contains_sensitive(Tainted(_payload="anything"))

    def test_detects_nested(self):
        assert contains_sensitive([1, {"a": (raw_sample(),)}])
        assert contains_sensitive({"trace": [raw_sample()]})

    def test_detects_inside_dataclasses(self):
        from dataclasses import dataclass

        @dataclass
        class Sneaky:
            note: str
            payload: object

        assert contains_sensitive(Sneaky(note="totally fine", payload=raw_sample()))

    def test_clean_payloads_pass(self):
        upload = InteractionUpload(
            history_id="h", entity_id="e", interaction_type="visit",
            event_time=0.0, duration=1.0, travel_km=0.0,
        )
        assert not contains_sensitive(upload)
        assert not contains_sensitive(Envelope(record=upload, token=None))
        assert not contains_sensitive([1, "x", 2.5, None])


@pytest.fixture(scope="module")
def sensed_world():
    town = build_town(TownConfig(n_users=15), seed=44)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=40), seed=44
    ).run()
    trace = generate_trace(town.users[0].user_id, town, result, 40 * DAY, seed=44)
    return town, trace


class TestOSPrivacyBroker:
    def test_sensor_read_is_tainted_and_audited(self, sensed_world):
        _, trace = sensed_world
        broker = OSPrivacyBroker(app_id="rsp-app")
        handle = broker.read_sensors(trace)
        assert isinstance(handle, Tainted)
        assert "Tainted" in repr(handle)
        assert broker.audit_log[-1].action == "sensor_read"

    def test_honest_pipeline_flows_through_sandbox(self, sensed_world):
        """The legitimate resolve-then-upload path passes every OS check."""
        town, trace = sensed_world
        broker = OSPrivacyBroker(app_id="rsp-app")
        handle = broker.read_sensors(trace)
        resolver = EntityResolver(town.entities)
        interactions = broker.process(handle, resolver.resolve, label="entity resolution")
        upload = InteractionUpload(
            history_id="h", entity_id="e", interaction_type="visit",
            event_time=0.0, duration=1.0, travel_km=0.0,
        )
        broker.egress(Envelope(record=upload, token=None))
        assert broker.blocked_egress_attempts == 0
        assert all(
            i.interaction_type in (InteractionType.VISIT, InteractionType.CALL)
            for i in interactions
        )

    def test_sandbox_blocks_raw_returns(self, sensed_world):
        """A processor that tries to smuggle raw fixes out is stopped."""
        _, trace = sensed_world
        broker = OSPrivacyBroker(app_id="rsp-app")
        handle = broker.read_sensors(trace)
        with pytest.raises(EgressViolation):
            broker.process(handle, lambda t: t.location_samples, label="smuggler")

    def test_egress_blocks_raw_location(self, sensed_world):
        """The malicious-RSP scenario of Section 5: the client tries to
        ship the user's raw location history — the OS refuses."""
        _, trace = sensed_world
        broker = OSPrivacyBroker(app_id="evil-rsp-app")
        with pytest.raises(EgressViolation):
            broker.egress({"telemetry": trace.location_samples[:10]})
        assert broker.blocked_egress_attempts == 1
        assert broker.audit_log[-1].action == "egress_blocked"

    def test_location_columns_cannot_leave(self, sensed_world):
        """The trace's columnar location stream is raw location history
        too: neither a sandboxed processor nor egress may release it."""
        _, trace = sensed_world
        broker = OSPrivacyBroker(app_id="evil-rsp-app")
        handle = broker.read_sensors(trace)
        with pytest.raises(EgressViolation):
            broker.process(handle, lambda t: t.locations, label="smuggler")
        with pytest.raises(EgressViolation):
            broker.egress({"telemetry": trace.locations})
        with pytest.raises(EgressViolation):
            broker.egress({"telemetry": [trace.locations[:10]]})
        assert broker.blocked_egress_attempts == 2

    def test_egress_blocks_tainted_handles(self, sensed_world):
        _, trace = sensed_world
        broker = OSPrivacyBroker(app_id="evil-rsp-app")
        handle = broker.read_sensors(trace)
        with pytest.raises(EgressViolation):
            broker.egress(handle)

    def test_clean_egress_audited(self):
        broker = OSPrivacyBroker(app_id="rsp-app")
        broker.egress({"version": "1.0"})
        assert broker.audit_log[-1].action == "egress"

    def test_audit_log_user_visible_summary(self, sensed_world):
        """The audit journal names counts, never coordinates."""
        _, trace = sensed_world
        broker = OSPrivacyBroker(app_id="rsp-app")
        broker.read_sensors(trace)
        detail = broker.audit_log[-1].detail
        assert "location fixes" in detail
        assert "Point" not in detail
