"""Windowed traces and the resumable stay-point fold.

For every user and every horizon, a :class:`TraceCarry` window plus the
client's fold and resolved calls must reproduce the full trace, its stays
and its interactions exactly.  The full trace itself is checked against
:func:`reference_trace`, the whole-horizon generator written out plainly.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.app import RSPClient, infer_home
from repro.core.classifier import OpinionClassifier, synthetic_training_pairs
from repro.sensing import sensors
from repro.sensing.location import StayPointFold, extract_stay_points
from repro.sensing.policy import SensingPolicy, continuous_policy, duty_cycled_policy
from repro.sensing.resolution import EntityResolver
from repro.sensing.sensors import TraceCarry, TraceConfig, generate_trace, trace_carries
from repro.sensing.traces import (
    CallRecord,
    DeviceTrace,
    LocationColumns,
    LocationSample,
    PaymentRecord,
)
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
    # Personal calls: a Poisson number per day at uniform times in the day.
    call_rng = make_rng(seed, f"trace-calls/{user_id}")
    day = 0
    while day * DAY < horizon:
        for _ in range(int(call_rng.poisson(config.personal_calls_per_day))):
            call = CallRecord(
                float(call_rng.uniform(day * DAY, (day + 1) * DAY)),
                f"+1-777-{int(call_rng.integers(0, 10**7)):07d}",
                float(call_rng.exponential(180.0)),
            )
            if call.time < horizon:
                calls.append(call)
        day += 1
    # Payments: one draw per restaurant visit, then the amount if paid.
    payment_rng = make_rng(seed, f"trace-payments/{user_id}")
    payments = []
    for visit in visits:
        entity = town.entity(visit.entity_id)
        if (
            entity.kind.label == "restaurant"
            and payment_rng.random() < config.payment_probability
        ):
            amount = float(payment_rng.uniform(8, 120))
            payments.append(PaymentRecord(visit.end_time, entity.entity_id, amount))
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
        calls: list = []
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
            assert window.call_start == len(calls)
            calls += window.call_records
            assert calls == full.call_records
            assert window.payment_records == full.payment_records
            final += window.location_samples[: window.n_final]

            fold.extend(window.locations[: window.n_final])
            stream = fold.copy()
            stream.extend(window.locations[window.n_final :])
            stays = extract_stay_points(full.location_samples)
            assert stream.stays() == stays

            assert client.observe_trace(window, now=horizon) == resolver.resolve(full)
            assert client._inferred_home == infer_home(full)


def epoch_horizons(days, epochs):
    return [days * DAY * k / epochs for k in range(1, epochs + 1)]


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=60), seed=11)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=30), seed=11
    ).run()
    return town, result


class TestSimulatedWorlds:
    def test_every_user_every_epoch(self, world, classifier):
        town, result = world
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
        columns = LocationColumns.of(samples)
        for cut in (0, 1, 57, 200, 399, 400):
            fold = StayPointFold()
            fold.extend(columns[:cut])
            peek = fold.copy()
            peek.extend(columns[cut:])
            assert peek.stays() == whole
            assert fold.n_folded == cut
            fold.extend(columns[cut:])
            assert fold.stays() == whole
            assert fold.first_point == samples[0].point

    def test_rejects_out_of_order_across_calls(self):
        fold = StayPointFold()
        fold.extend(LocationColumns.of([LocationSample(10.0, Point(0, 0))]))
        with pytest.raises(ValueError):
            fold.extend(LocationColumns.of([LocationSample(5.0, Point(0, 0))]))

    def test_out_of_order_fixes_fold_nothing(self):
        fold = StayPointFold()
        fold.extend(LocationColumns([0.0, 700.0], [1.0, 1.0], [1.0, 1.0]))
        before = (fold.n_folded, fold.stays(), fold.first_point)
        with pytest.raises(ValueError):
            fold.extend(LocationColumns([800.0, 900.0, 850.0], [1.0] * 3, [1.0] * 3))
        assert (fold.n_folded, fold.stays(), fold.first_point) == before
        fold.extend(LocationColumns([800.0], [1.0], [1.0]))
        assert fold.n_folded == 3 and fold.stays()[0].n_samples == 3


@given(
    start=st.floats(min_value=0.0, max_value=1e8),
    length=st.floats(min_value=0.0, max_value=4e6),
    interval=st.floats(min_value=30.0, max_value=7200.0),
    burst=st.lists(st.floats(min_value=0.0, max_value=3600.0), max_size=3).map(sorted),
)
@settings(max_examples=200, deadline=None)
def test_fix_times_match_the_loop(start, length, interval, burst):
    """The keep-alive times are a running sum; they must equal, bit for
    bit, a loop that adds the interval one fix at a time."""
    policy = SensingPolicy("p", tuple(burst), interval, None, True)
    config = TraceConfig()
    stay = sensors._Stay(Point(0.0, 0.0), start, start + length)
    expected = [start + offset for offset in burst if start + offset < stay.end]
    cursor = start + burst[-1] + interval if burst else start + config.first_fix_delay
    while cursor < stay.end:
        expected.append(cursor)
        cursor += interval
    assert sensors._stay_fix_times(stay, policy, config).tolist() == expected


class TestExactFloats:
    def test_stays_points_and_interactions_hold_python_floats(self, world, classifier):
        """Columns are float64 arrays, but no ``np.float64`` may reach a
        stay, a point or an interaction: it would change their ``repr``."""
        town, result = world
        users = [user.user_id for user in town.users[:10]]
        carries = trace_carries(result, users)
        checked = 0
        for user_id in users:
            client = RSPClient(user_id, town.entities, classifier)
            for horizon in epoch_horizons(30, 4):
                window = generate_trace(
                    user_id, town, result, horizon, seed=11, carry=carries[user_id]
                )
                for interaction in client.observe_trace(window, now=horizon):
                    values = (interaction.time, interaction.duration, interaction.travel_km)
                    assert all(type(value) is float for value in values), interaction
                    checked += 1
                for stay in client._fold.stays():
                    values = (stay.center.x, stay.center.y, stay.start, stay.end)
                    assert all(type(value) is float for value in values), stay
                first = client._fold.first_point
                if first is not None:
                    assert type(first.x) is float and type(first.y) is float
                home = client._inferred_home
                assert type(home.x) is float and type(home.y) is float
                for sample in window.location_samples:
                    assert type(sample.time) is float and type(sample.point.x) is float
        assert checked > 0


# ------------------------------------------------------------ call windows


def client_for(town, classifier, user_id="u"):
    return RSPClient(user_id, town.entities, classifier)


class TestCallWindows:
    def test_calls_survive_windows_without_final_samples(self, classifier):
        """A device with no visits has no samples, so every window starts at
        sample 0; its call log still continues across windows."""
        town = hand_town()
        events = [
            CallEvent("u", "dentist", 5 * HOUR, 120.0),
            CallEvent("u", "cafe", 20 * HOUR, 60.0),
            CallEvent("u", "dentist", 40 * HOUR, 300.0),
        ]
        result = SimulationResult(events=events)
        carry = trace_carries(result, ["u"])["u"]
        client = client_for(town, classifier)
        for horizon in (6 * HOUR, 10 * HOUR, 30 * HOUR, 50 * HOUR):
            window = generate_trace("u", town, result, horizon, seed=1, carry=carry)
            assert window.window_start == 0 and window.n_final == 0
            observed = client.observe_trace(window, now=horizon)
            assert [(i.entity_id, i.time) for i in observed] == [
                (e.entity_id, e.start_time) for e in events if e.start_time < horizon
            ]

    @pytest.mark.parametrize("shift", [1, -1], ids=["skips", "repeats"])
    def test_call_gap_raises_and_changes_nothing(self, shift, classifier):
        town = hand_town()
        result = SimulationResult(events=SCENARIOS["next visit from elsewhere"])
        carry = trace_carries(result, ["u"])["u"]
        client = client_for(town, classifier)
        client.observe_trace(
            generate_trace("u", town, result, 30 * HOUR, seed=1, carry=carry), now=30 * HOUR
        )
        second = generate_trace("u", town, result, 80 * HOUR, seed=1, carry=carry)
        assert second.call_start > 0
        bad = dataclasses.replace(second, call_start=second.call_start + shift)
        with pytest.raises(ValueError, match="resolved"):
            client.observe_trace(bad, now=80 * HOUR)
        full = generate_trace("u", town, result, 80 * HOUR, seed=1)
        assert client.observe_trace(second, now=80 * HOUR) == EntityResolver(
            town.entities
        ).resolve(full)

    def test_restored_client_catches_up(self, world, classifier):
        """A crash-restored client fed by a rewound carry reaches the same
        interactions as a client that never crashed."""
        town, result = world
        horizons = epoch_horizons(30, 6)
        users = [user.user_id for user in town.users[:12]]
        steady = trace_carries(result, users)
        crashing = trace_carries(result, users)
        for user_id in users:
            uninterrupted = client_for(town, classifier, user_id)
            restored = client_for(town, classifier, user_id)
            for index, horizon in enumerate(horizons):
                if index == 3:
                    restored = RSPClient.restore(
                        restored.checkpoint(), town.entities, classifier
                    )
                    crashing[user_id] = crashing[user_id].rewound()
                expected = uninterrupted.observe_trace(
                    generate_trace(
                        user_id, town, result, horizon, seed=11, carry=steady[user_id]
                    ),
                    now=horizon,
                )
                got = restored.observe_trace(
                    generate_trace(
                        user_id, town, result, horizon, seed=11, carry=crashing[user_id]
                    ),
                    now=horizon,
                )
                assert got == expected


# ------------------------------------------------------------ sensor model


class TestSensorModel:
    def test_personal_calls_per_day(self):
        """4000 device-days of a Poisson(3) process: the mean lies within
        0.15 of the rate (the standard error is 0.027)."""
        town, config = hand_town(), TraceConfig()
        days = 40
        total = 0
        for device in range(100):
            carry = TraceCarry(f"d{device}")
            trace = carry.window(town, days * DAY, duty_cycled_policy(), config, seed=9)
            total += len(trace.call_records)
        assert total / (100 * days) == pytest.approx(config.personal_calls_per_day, abs=0.15)

    def test_payment_fraction(self):
        """2000 restaurant visits: the paid fraction lies within 0.04 of the
        payment probability (the standard error is 0.009); the dentist
        visits between them are never paid."""
        town, config = hand_town(), TraceConfig()
        paid = visits = 0
        for device in range(40):
            events = []
            for day in range(50):
                for venue, at in ((("cafe", "bistro")[day % 2], 12 * HOUR), ("dentist", 16 * HOUR)):
                    events.append(VisitEvent(f"d{device}", venue, day * DAY + at, HOUR, HOME, 1.0))
            carry = TraceCarry(f"d{device}", events)
            trace = carry.window(town, 50 * DAY, duty_cycled_policy(), config, seed=9)
            assert {p.merchant_name for p in trace.payment_records} <= {"cafe", "bistro"}
            paid += len(trace.payment_records)
            visits += 50
        assert paid / visits == pytest.approx(config.payment_probability, abs=0.04)

    def test_carry_buffers_at_most_one_day_of_calls(self, world):
        """After every window, the only personal calls the carry holds are
        those of the horizon's own day still to come."""
        town, result = world
        horizons = [0.0, 0.4 * DAY, DAY, DAY, 1.5 * DAY, 4 * DAY, 9.99 * DAY, 17.2 * DAY, 30 * DAY]
        users = [user.user_id for user in town.users[:10]]
        for user_id, carry in trace_carries(result, users).items():
            for horizon in horizons:
                generate_trace(user_id, town, result, horizon, seed=11, carry=carry)
                day_end = math.ceil(horizon / DAY) * DAY
                assert all(horizon <= call.time <= day_end for call in carry._personal)
