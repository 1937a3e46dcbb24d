"""The device: turning ground-truth activity into raw sensor streams.

Given the physical-world events of :mod:`repro.world`, this module produces
what a phone would actually record — noisy GPS fixes under a sampling
policy, call-log rows (including personal calls that have nothing to do
with any entity), and payment records.  Downstream inference sees only
these streams; nothing in them names an entity or an opinion.

A long-running deployment observes the same device at growing horizons.
:class:`TraceCarry` makes that cost proportional to what is new: passed to
:func:`generate_trace`, it keeps the generator's place in the user's
timeline, and the returned trace is a *window* that starts where the
device's previously final location samples end (see
:class:`~repro.sensing.traces.DeviceTrace`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.sensing.policy import SensingPolicy, duty_cycled_policy
from repro.sensing.traces import CallRecord, DeviceTrace, LocationSample, PaymentRecord
from repro.util.clock import DAY
from repro.util.rng import make_rng
from repro.world.behavior import SimulationResult
from repro.world.entities import Entity
from repro.world.events import CallEvent, VisitEvent
from repro.world.geography import Point, travel_time_seconds
from repro.world.population import Town


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the sensor model."""

    #: Std-dev of GPS noise, km (~30 m).
    gps_noise_km: float = 0.03
    #: Delay after becoming stationary before the first fix.
    first_fix_delay: float = 30.0
    #: Personal (non-entity) calls per day, polluting the call log.
    personal_calls_per_day: float = 3.0
    #: Probability that a restaurant visit produces a payment record.
    payment_probability: float = 0.8
    #: Average urban travel speed used to synthesize travel segments.
    speed_kmh: float = 25.0

    def __post_init__(self) -> None:
        if self.first_fix_delay < 0:
            raise ValueError("first_fix_delay must be non-negative")


@dataclass(frozen=True)
class _Stay:
    location: Point
    start: float
    end: float


def _stay_fix_times(stay: _Stay, policy: SensingPolicy, config: TraceConfig) -> list[float]:
    """Fix times within ``stay``; a longer stay's list extends a shorter one's."""
    times: list[float] = []
    if policy.burst_offsets:
        for offset in policy.burst_offsets:
            t = stay.start + offset
            if t < stay.end:
                times.append(t)
        cursor = stay.start + policy.burst_offsets[-1] + policy.stationary_interval
    else:
        cursor = stay.start + config.first_fix_delay
    while cursor < stay.end:
        times.append(cursor)
        cursor += policy.stationary_interval
    return times


def _noisy_fixes(
    times: list[float],
    xs: list[float],
    ys: list[float],
    config: TraceConfig,
    rng: np.random.Generator,
) -> list[LocationSample]:
    """One fix per time, noised by one vector draw of x/y pairs."""
    if not times:
        return []
    sd = config.gps_noise_km
    noise = rng.normal(0, sd, size=2 * len(times)).tolist()
    return [
        LocationSample(time=t, point=Point(x + noise[2 * i], y + noise[2 * i + 1]), accuracy_km=sd)
        for i, (t, x, y) in enumerate(zip(times, xs, ys))
    ]


def _sample_stay(
    stay: _Stay,
    policy: SensingPolicy,
    config: TraceConfig,
    rng: np.random.Generator,
    skip: int = 0,
) -> list[LocationSample]:
    """The stay's fixes, leaving out the first ``skip`` (drawn earlier)."""
    times = _stay_fix_times(stay, policy, config)[skip:]
    n = len(times)
    return _noisy_fixes(times, [stay.location.x] * n, [stay.location.y] * n, config, rng)


def _sample_travel(
    origin: Point,
    destination: Point,
    start: float,
    end: float,
    policy: SensingPolicy,
    config: TraceConfig,
    rng: np.random.Generator,
) -> list[LocationSample]:
    if policy.moving_interval is None or end <= start:
        return []
    times: list[float] = []
    xs: list[float] = []
    ys: list[float] = []
    t = start + policy.moving_interval
    while t < end:
        fraction = (t - start) / (end - start)
        times.append(t)
        xs.append(origin.x + fraction * (destination.x - origin.x))
        ys.append(origin.y + fraction * (destination.y - origin.y))
        t += policy.moving_interval
    return _noisy_fixes(times, xs, ys, config, rng)


def _time(item) -> float:
    return item.time


class TraceCarry:
    """One device's place in its own timeline between trace windows.

    The timeline is rebuilt from the user's visits: anchored at the
    visit's origin until departure, at the venue for the visit, anchored
    again from arrival home.  Each stay gets fixes under the policy, and
    each gap between stays gets travel fixes.  The last stay, at the origin
    of the last visit, stays open until the horizon.  Later horizons only
    append to this timeline, with two exceptions:

    * the open stay is replaced when the next visit starts, unless the
      next visit leaves from the same place (then it is a prefix of that
      visit's origin stay);
    * personal calls and payments are drawn after every location fix, and
      the number and times of calls depend on the horizon.

    The carry therefore keeps the trace RNG past every *settled* draw
    (fixes no later horizon can change, including the settled prefix of a
    continuing open stay); each window draws the rest from there and then
    rewinds.  A settled fix is *final*, and leaves the carry for good,
    once no fix still to come can sort before it.

    The carry holds ground truth (the user's visits and calls), so it
    never leaves :mod:`repro.sensing`; the client only sees the windows.
    """

    def __init__(
        self,
        user_id: str,
        visits: Iterable[VisitEvent] = (),
        calls: Iterable[CallEvent] = (),
    ) -> None:
        self.user_id = user_id
        #: The user's visits and entity calls, each stably time-ordered.
        self.visits: list[VisitEvent] = sorted(visits, key=lambda v: v.start_time)
        self.calls: list[CallEvent] = sorted(calls, key=lambda c: c.start_time)
        self._params: tuple | None = None
        #: The trace RNG, past every settled draw between windows.
        self._rng: np.random.Generator | None = None
        self._horizon = -math.inf
        self._entities: dict[str, Entity] = {}
        #: Visits already turned into stays, and when the user is free
        #: after them.
        self._n_visits = 0
        self._cursor = 0.0
        #: (end time, merchant) of every consumed restaurant visit.
        self._restaurants: list[tuple[float, str]] = []
        #: The last stay drawn from; ``_open`` when it is the open stay,
        #: of which the first ``_drawn`` fixes are settled.
        self._current: _Stay | None = None
        self._open = False
        self._drawn = 0
        #: Settled fixes that are not final yet, and the count of final
        #: fixes handed out so far (the next window's start).
        self._pending: list[LocationSample] = []
        self._emitted = 0

    def rewound(self) -> "TraceCarry":
        """A fresh carry over the same ground truth: its next window is a
        full trace (``window_start == 0``)."""
        return TraceCarry(self.user_id, self.visits, self.calls)

    def _entity(self, town: Town, entity_id: str) -> Entity:
        entity = self._entities.get(entity_id)
        if entity is None:
            entity = self._entities[entity_id] = town.entity(entity_id)
        return entity

    def _departure(
        self, town: Town, visit: VisitEvent, config: TraceConfig
    ) -> tuple[Entity, float, float]:
        """The visit's venue, travel time, and when the user leaves its origin."""
        entity = self._entity(town, visit.entity_id)
        travel = travel_time_seconds(visit.origin, entity.location, config.speed_kmh)
        return entity, travel, max(self._cursor, visit.start_time - travel)

    def _draw(
        self, stay: _Stay, still_open: bool, policy: SensingPolicy, config: TraceConfig
    ) -> None:
        """Settle ``stay``'s fixes, after the travel into it (unless it
        continues the open stay, whose travel and first fixes are drawn)."""
        if not self._open:
            if self._current is not None:
                self._pending += _sample_travel(
                    self._current.location,
                    stay.location,
                    self._current.end,
                    stay.start,
                    policy,
                    config,
                    self._rng,
                )
            self._drawn = 0
        fixes = _sample_stay(stay, policy, config, self._rng, skip=self._drawn)
        self._pending += fixes
        self._drawn += len(fixes)
        self._current, self._open = stay, still_open

    def window(
        self,
        town: Town,
        horizon: float,
        policy: SensingPolicy,
        config: TraceConfig,
        seed: int,
    ) -> DeviceTrace:
        """The device trace at ``horizon``, from the first non-final fix on."""
        params = (seed, policy, config)
        if self._rng is None:
            self._params = params
            self._rng = make_rng(seed, f"trace/{self.user_id}")
        elif params != self._params:
            raise ValueError("a trace carry cannot change seed, policy or config")
        if horizon < self._horizon:
            raise ValueError("trace windows need non-decreasing horizons")
        self._horizon = horizon

        visits = self.visits
        while self._n_visits < len(visits) and visits[self._n_visits].start_time < horizon:
            visit = visits[self._n_visits]
            entity, travel, depart = self._departure(town, visit, config)
            if depart > self._cursor:
                self._draw(_Stay(visit.origin, self._cursor, depart), False, policy, config)
            if visit.end_time > visit.start_time:
                self._draw(
                    _Stay(entity.location, visit.start_time, visit.end_time),
                    False,
                    policy,
                    config,
                )
            self._n_visits += 1
            self._cursor = visit.end_time + travel
            if entity.kind.label == "restaurant":
                self._restaurants.append((visit.end_time, entity.entity_id))

        # The open stay: anchored at the last visit's origin until the
        # horizon.  Its fixes settle up to where the next visit's origin
        # stay (same place, same start) would end, if there is one.
        open_stay = None
        if self._n_visits and self._cursor < horizon:
            origin = visits[self._n_visits - 1].origin
            open_stay = _Stay(origin, self._cursor, horizon)
            settled_until = None
            if self._n_visits == len(visits):
                settled_until = horizon
            else:
                nxt = visits[self._n_visits]
                _, _, depart = self._departure(town, nxt, config)
                if depart > self._cursor and nxt.origin == origin:
                    settled_until = min(depart, horizon)
            if settled_until is not None:
                self._draw(_Stay(origin, self._cursor, settled_until), True, policy, config)

        # Nothing still to come can sort before ``bound``: unsettled fixes
        # of the open stay, travel out of the current stay, stays from the
        # cursor on, and stays of visits not started yet.
        if self._open:
            bound = self._current.end
        elif self._current is not None:
            bound = min(self._current.end, self._cursor)
        else:
            bound = self._cursor
        if self._n_visits < len(visits):
            bound = min(bound, visits[self._n_visits].start_time)
        pending = self._pending
        pending.sort(key=_time)
        n_final = bisect_left(pending, bound, key=_time)
        final, self._pending = pending[:n_final], pending[n_final:]
        trace = DeviceTrace(user_id=self.user_id, window_start=self._emitted, n_final=n_final)
        self._emitted += n_final

        # Everything below depends on the horizon: draw it, then rewind
        # the RNG to its settled state.
        rng = self._rng
        settled = rng.bit_generator.state
        tail = list(self._pending)
        if open_stay is not None:
            if self._open:
                tail += _sample_stay(open_stay, policy, config, rng, skip=self._drawn)
            else:
                if self._current is not None:
                    tail += _sample_travel(
                        self._current.location,
                        open_stay.location,
                        self._current.end,
                        open_stay.start,
                        policy,
                        config,
                        rng,
                    )
                tail += _sample_stay(open_stay, policy, config, rng)
        tail.sort(key=_time)
        trace.location_samples = final + tail

        calls = self.calls[: bisect_left(self.calls, horizon, key=lambda c: c.start_time)]
        trace.call_records = [
            CallRecord(
                time=call.start_time,
                number=self._entity(town, call.entity_id).phone,
                duration=call.duration,
            )
            for call in calls
        ]
        # Personal calls: numbers outside the entity directory that
        # resolution must learn to ignore.
        n_personal = int(rng.poisson(config.personal_calls_per_day * horizon / DAY))
        for _ in range(n_personal):
            trace.call_records.append(
                CallRecord(
                    time=float(rng.uniform(0, horizon)),
                    number=f"+1-777-{int(rng.integers(0, 10**7)):07d}",
                    duration=float(rng.exponential(180.0)),
                )
            )

        for end_time, merchant in self._restaurants:
            if rng.random() < config.payment_probability:
                trace.payment_records.append(
                    PaymentRecord(
                        time=end_time,
                        merchant_name=merchant,
                        amount=float(rng.uniform(8, 120)),
                    )
                )

        rng.bit_generator.state = settled
        trace.call_records.sort(key=_time)
        trace.payment_records.sort(key=_time)
        return trace


def trace_carries(result: SimulationResult, user_ids: Iterable[str]) -> dict[str, TraceCarry]:
    """A fresh :class:`TraceCarry` per user, bucketing the events in one pass."""
    buckets: dict[str, tuple[list, list]] = {user_id: ([], []) for user_id in user_ids}
    for event in result.events:
        bucket = buckets.get(event.user_id)
        if bucket is None:
            continue
        if isinstance(event, VisitEvent):
            bucket[0].append(event)
        elif isinstance(event, CallEvent):
            bucket[1].append(event)
    return {
        user_id: TraceCarry(user_id, visits, calls)
        for user_id, (visits, calls) in buckets.items()
    }


def generate_trace(
    user_id: str,
    town: Town,
    result: SimulationResult,
    horizon: float,
    policy: SensingPolicy | None = None,
    config: TraceConfig | None = None,
    seed: int = 0,
    carry: TraceCarry | None = None,
) -> DeviceTrace:
    """Produce the device trace one user's phone would have recorded.

    ``horizon`` is the end of the observation window in simulated seconds
    (events beyond it are ignored).

    Without a ``carry`` the result is the full trace.  With one (from
    :func:`trace_carries`), successive calls at non-decreasing horizons
    return windows: each trace's location samples start at index
    ``window_start`` of the device's stream, right after the previous
    window's ``n_final`` leading final samples, and the call and payment
    records are complete.  The carry supplies the ground truth, so
    ``result`` is not read, and the seed, policy and config must stay the
    same across its windows.  A carry's first window is a full trace.
    """
    policy = policy or duty_cycled_policy()
    config = config or TraceConfig()
    if carry is None:
        carry = trace_carries(result, [user_id])[user_id]
    elif carry.user_id != user_id:
        raise ValueError(f"trace carry belongs to {carry.user_id!r}, not {user_id!r}")
    return carry.window(town, horizon, policy, config, seed)


def generate_traces(
    town: Town,
    result: SimulationResult,
    horizon: float,
    policy: SensingPolicy | None = None,
    config: TraceConfig | None = None,
    seed: int = 0,
) -> dict[str, DeviceTrace]:
    """Traces for every user in the town."""
    return {
        user.user_id: generate_trace(
            user.user_id, town, result, horizon, policy, config, seed
        )
        for user in town.users
    }
