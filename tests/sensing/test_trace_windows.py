"""Windowed traces and the resumable stay-point fold.

For every user and every horizon, a :class:`TraceCarry` window plus the
client's fold must reproduce the full trace and its stays exactly.  The
full trace itself is checked against :func:`reference_trace`, the
whole-horizon generator written out plainly.
"""

import pytest

from repro.client.app import RSPClient, infer_home
from repro.core.classifier import OpinionClassifier, synthetic_training_pairs
from repro.sensing.location import StayPointFold, extract_stay_points
from repro.sensing.policy import SensingPolicy, continuous_policy, duty_cycled_policy
from repro.sensing.resolution import EntityResolver
from repro.sensing.sensors import TraceCarry, TraceConfig, generate_trace, trace_carries
from repro.sensing.traces import CallRecord, DeviceTrace, LocationSample, PaymentRecord
from repro.util.clock import DAY, HOUR, MINUTE
from repro.util.rng import make_rng
from repro.world.behavior import BehaviorConfig, BehaviorSimulator, SimulationResult
from repro.world.entities import Entity, EntityKind
from repro.world.events import CallEvent, VisitEvent
from repro.world.geography import CityGrid, Point, travel_time_seconds
from repro.world.population import Town, TownConfig, build_town


def reference_trace(user_id, town, result, horizon, policy, config, seed):
    """The full trace as one pass over the stays up to ``horizon``."""
    rng = make_rng(seed, f"trace/{user_id}")
    visits = sorted(
        (
            e
            for e in result.events
            if isinstance(e, VisitEvent) and e.user_id == user_id and e.start_time < horizon
        ),
        key=lambda v: v.start_time,
    )
    stays, cursor = [], 0.0
    for visit in visits:
        venue = town.entity(visit.entity_id).location
        travel = travel_time_seconds(visit.origin, venue, config.speed_kmh)
        depart = max(cursor, visit.start_time - travel)
        if depart > cursor:
            stays.append((visit.origin, cursor, depart))
        stays.append((venue, visit.start_time, visit.end_time))
        cursor = visit.end_time + travel
    if visits and cursor < horizon:
        stays.append((visits[-1].origin, cursor, horizon))
    stays = [stay for stay in stays if stay[2] > stay[1]]

    def fix(t, x, y):
        dx = float(rng.normal(0, config.gps_noise_km))
        dy = float(rng.normal(0, config.gps_noise_km))
        return LocationSample(t, Point(x + dx, y + dy), config.gps_noise_km)

    samples = []
    for index, (where, start, end) in enumerate(stays):
        times = [start + o for o in policy.burst_offsets if start + o < end]
        t = start + (
            policy.burst_offsets[-1] + policy.stationary_interval
            if policy.burst_offsets
            else config.first_fix_delay
        )
        while t < end:
            times.append(t)
            t += policy.stationary_interval
        samples += [fix(t, where.x, where.y) for t in times]
        if index + 1 < len(stays) and policy.moving_interval is not None:
            to, arrive = stays[index + 1][0], stays[index + 1][1]
            t = end + policy.moving_interval
            while t < arrive:
                f = (t - end) / (arrive - end)
                samples.append(fix(t, where.x + f * (to.x - where.x), where.y + f * (to.y - where.y)))
                t += policy.moving_interval
    calls = [
        CallRecord(e.start_time, town.entity(e.entity_id).phone, e.duration)
        for e in result.events
        if isinstance(e, CallEvent) and e.user_id == user_id and e.start_time < horizon
    ]
    for _ in range(int(rng.poisson(config.personal_calls_per_day * horizon / DAY))):
        calls.append(
            CallRecord(
                float(rng.uniform(0, horizon)),
                f"+1-777-{int(rng.integers(0, 10**7)):07d}",
                float(rng.exponential(180.0)),
            )
        )
    payments = []
    for visit in visits:
        entity = town.entity(visit.entity_id)
        if entity.kind.label == "restaurant" and rng.random() < config.payment_probability:
            payments.append(PaymentRecord(visit.end_time, entity.entity_id, float(rng.uniform(8, 120))))
    trace = DeviceTrace(user_id, samples, calls, payments)
    trace.sort()
    return trace


@pytest.fixture(scope="module")
def classifier():
    return OpinionClassifier().fit(*synthetic_training_pairs(60, seed=0))


def replay(town, result, horizons, classifier, policy=None, seed=0, users=None):
    """Observe every user at every horizon through windows and through full
    traces, and assert that they agree."""
    policy = policy or duty_cycled_policy()
    config = TraceConfig()
    users = users if users is not None else [u.user_id for u in town.users]
    carries = trace_carries(result, users)
    resolver = EntityResolver(town.entities)
    for user_id in users:
        client = RSPClient(user_id, town.entities, classifier)
        final: list = []
        fold = StayPointFold()
        for horizon in horizons:
            window = generate_trace(
                user_id, town, result, horizon, policy, seed=seed, carry=carries[user_id]
            )
            full = generate_trace(user_id, town, result, horizon, policy, seed=seed)
            reference = reference_trace(user_id, town, result, horizon, policy, config, seed)
            assert full.location_samples == reference.location_samples
            assert full.call_records == reference.call_records
            assert full.payment_records == reference.payment_records

            assert window.window_start == len(final)
            assert final + window.location_samples == full.location_samples
            assert window.call_records == full.call_records
            assert window.payment_records == full.payment_records
            final += window.location_samples[: window.n_final]

            fold.extend(window.location_samples[: window.n_final])
            stream = fold.copy()
            stream.extend(window.location_samples[window.n_final :])
            stays = extract_stay_points(full.location_samples)
            assert stream.stays() == stays

            assert client.observe_trace(window, now=horizon) == resolver.resolve(full)
            assert client._inferred_home == infer_home(full)


def epoch_horizons(days, epochs):
    return [days * DAY * k / epochs for k in range(1, epochs + 1)]


class TestSimulatedWorlds:
    def test_every_user_every_epoch(self, classifier):
        town = build_town(TownConfig(n_users=60), seed=11)
        result = BehaviorSimulator(
            town.users, town.entities, BehaviorConfig(duration_days=30), seed=11
        ).run()
        replay(town, result, epoch_horizons(30, 8), classifier, seed=11)

    def test_travel_fixes_and_uneven_horizons(self, classifier):
        town = build_town(TownConfig(n_users=15), seed=4)
        result = BehaviorSimulator(
            town.users, town.entities, BehaviorConfig(duration_days=12), seed=4
        ).run()
        horizons = [0.0, 0.3 * DAY, 2 * DAY, 2 * DAY, 5.5 * DAY, 11 * DAY, 14 * DAY]
        replay(town, result, horizons, classifier, policy=continuous_policy(900.0), seed=4)


# ------------------------------------------------------------ hand-built


HOME = Point(2.0, 2.0)
WORK = Point(8.0, 3.0)


def hand_town():
    entities = [
        Entity("cafe", EntityKind.RESTAURANT, "cafe", Point(4.0, 2.0), 3.0, phone="+1-555-0001"),
        Entity("bistro", EntityKind.RESTAURANT, "french", Point(4.05, 2.0), 4.0),
        Entity("dentist", EntityKind.DENTIST, "dentist", Point(6.0, 6.0), 3.5, phone="+1-555-0002"),
    ]
    return Town(grid=CityGrid(), entities=entities, users=[])


def visit(entity_id, start, duration, origin=HOME):
    return VisitEvent("u", entity_id, start, duration, origin, 1.0)


SCENARIOS = {
    "no visits": [CallEvent("u", "dentist", 5 * HOUR, 120.0)],
    "straddles the horizon": [
        visit("cafe", 10 * HOUR, 30 * HOUR),
        visit("dentist", 60 * HOUR, 2 * HOUR),
    ],
    "next visit from elsewhere": [
        visit("cafe", 10 * HOUR, 2 * HOUR),
        visit("dentist", 40 * HOUR, HOUR, origin=WORK),
        visit("bistro", 70 * HOUR, HOUR),
        CallEvent("u", "cafe", 41 * HOUR, 60.0),
    ],
    "same origin, long trip": [
        visit("cafe", 10 * HOUR, 2 * HOUR),
        visit("dentist", 30 * HOUR, 2 * HOUR),
        visit("cafe", 30 * HOUR + 20 * MINUTE, HOUR),
    ],
    "overlapping visits": [
        visit("cafe", 10 * HOUR, 20 * HOUR),
        visit("bistro", 12 * HOUR, 2 * HOUR),
        visit("dentist", 13 * HOUR, 3 * HOUR, origin=WORK),
        visit("cafe", 50 * HOUR, HOUR),
    ],
    "inside a long visit": [
        visit("cafe", 10 * HOUR, 20 * HOUR),
        visit("bistro", 12 * HOUR, 2 * HOUR),
        visit("dentist", 20 * HOUR, HOUR),
        visit("cafe", 40 * HOUR, HOUR, origin=WORK),
    ],
    "zero-length stays": [
        visit("cafe", 10 * HOUR, 0.0),
        visit("bistro", 20 * HOUR, 2 * HOUR),
        visit("dentist", 20 * HOUR + 10 * MINUTE, 0.0),
        visit("cafe", 55 * HOUR, 0.0, origin=WORK),
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize(
    "policy", [duty_cycled_policy(), continuous_policy(300.0)], ids=["duty", "continuous"]
)
def test_hand_built_worlds(name, policy, classifier):
    town = hand_town()
    result = SimulationResult(events=SCENARIOS[name])
    horizons = sorted(
        [k * 1.7 * HOUR for k in range(1, 60)]
        + [e.start_time - offset for e in result.events for offset in (0.0, 5 * MINUTE)]
        + [e.end_time for e in result.events]
    )
    replay(town, result, horizons, classifier, policy=policy, seed=3, users=["u"])


class TestCarryContract:
    def setup_method(self):
        self.town = hand_town()
        self.result = SimulationResult(events=SCENARIOS["straddles the horizon"])

    def test_first_window_is_the_full_trace(self):
        carry = trace_carries(self.result, ["u"])["u"]
        window = generate_trace("u", self.town, self.result, 20 * HOUR, seed=2, carry=carry)
        full = generate_trace("u", self.town, self.result, 20 * HOUR, seed=2)
        assert window.window_start == 0
        assert window == full

    def test_rewound_carry_starts_over(self):
        carry = trace_carries(self.result, ["u"])["u"]
        generate_trace("u", self.town, self.result, 20 * HOUR, seed=2, carry=carry)
        later = generate_trace("u", self.town, self.result, 50 * HOUR, seed=2, carry=carry)
        assert later.window_start > 0
        again = generate_trace(
            "u", self.town, self.result, 50 * HOUR, seed=2, carry=carry.rewound()
        )
        assert again == generate_trace("u", self.town, self.result, 50 * HOUR, seed=2)

    def test_rejects_misuse(self):
        carry = TraceCarry("u", SCENARIOS["straddles the horizon"])
        generate_trace("u", self.town, self.result, 20 * HOUR, seed=2, carry=carry)
        with pytest.raises(ValueError):
            generate_trace("u", self.town, self.result, 10 * HOUR, seed=2, carry=carry)
        with pytest.raises(ValueError):
            generate_trace("u", self.town, self.result, 30 * HOUR, seed=3, carry=carry)
        with pytest.raises(ValueError):
            generate_trace("v", self.town, self.result, 30 * HOUR, seed=2, carry=carry)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SensingPolicy("bad", (300.0, 30.0), HOUR, None, True)
        with pytest.raises(ValueError):
            SensingPolicy("bad", (-1.0,), HOUR, None, True)
        with pytest.raises(ValueError):
            TraceConfig(first_fix_delay=-1.0)
        with pytest.raises(ValueError):
            DeviceTrace("u", n_final=-1)


class TestFold:
    def test_resumes_exactly(self):
        rng = make_rng(5, "fold-test")
        samples, t = [], 0.0
        for _ in range(400):
            t += float(rng.exponential(900.0))
            where = Point(float(rng.integers(0, 3)), 0.0)
            samples.append(LocationSample(t, where.offset(float(rng.normal(0, 0.05)), 0.0)))
        whole = extract_stay_points(samples)
        for cut in (0, 1, 57, 200, 399, 400):
            fold = StayPointFold()
            fold.extend(samples[:cut])
            peek = fold.copy()
            peek.extend(samples[cut:])
            assert peek.stays() == whole
            assert fold.n_folded == cut
            fold.extend(samples[cut:])
            assert fold.stays() == whole
            assert fold.first_point == samples[0].point

    def test_rejects_out_of_order_across_calls(self):
        fold = StayPointFold()
        fold.extend([LocationSample(10.0, Point(0, 0))])
        with pytest.raises(ValueError):
            fold.extend([LocationSample(5.0, Point(0, 0))])
