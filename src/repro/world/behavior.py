"""The behaviour simulator: turning latent opinions into observable activity.

This is the generative model the whole reproduction rests on.  The paper's
core hypothesis (Section 4.1) is that *observable interaction patterns carry
opinion signal* — effort is endorsement — but also that the signal is
confounded: repeat interaction can be loyalty, laziness, or complaint.  The
simulator produces exactly those behaviours:

* **Choice.**  When a need arises (a restaurant outing, a toothache, a burst
  pipe), the user picks among nearby entities of the right category by a
  softmax over utility = expected quality − distance cost − price mismatch.
  Quality expectations start at an uninformed prior and are replaced by the
  user's true experienced opinion after a first interaction, so good
  experiences produce repeat visits and bad ones produce switching.
* **Effort.**  Distance enters utility negatively, so a user who repeatedly
  travels far past closer alternatives is revealing a strong preference —
  the signal the effort features of :mod:`repro.core.features` extract.
* **Confounders.**  With probability ``laziness`` a user skips the choice
  entirely and repeats their previous pick regardless of opinion (loyalty
  that isn't); dissatisfied service-provider customers place short
  follow-up complaint calls (repeat contact that signals the *opposite* of
  endorsement); restaurant visits happen in groups that inflate aggregate
  counts (Section 4.1's group concern).
* **Reviews.**  After an opinion settles, the user posts an explicit review
  with probability ``posting_propensity`` — the tiny number whose smallness
  creates the paucity of reviews the paper measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.util.clock import DAY, HOUR, MINUTE
from repro.util.rng import make_rng
from repro.world.entities import Entity, InteractionStyle
from repro.world.events import CallEvent, Event, GroundTruthOpinion, VisitEvent
from repro.world.geography import Point
from repro.world.users import User


@dataclass(frozen=True)
class PostedReview:
    """An explicit review a user chose to post (rating 1..5 stars)."""

    user_id: str
    entity_id: str
    rating: int
    time: float

    def __post_init__(self) -> None:
        if not 1 <= self.rating <= 5:
            raise ValueError("rating must lie in 1..5")


@dataclass(frozen=True)
class BehaviorConfig:
    """Tunable parameters of the behaviour model.

    Need rates are per-user frequencies of each interaction style:
    restaurants are weekly-scale, medical appointments quarterly-to-yearly,
    and service-provider needs yearly — matching the paper's observation
    that histories for rarely used providers must span years.
    """

    duration_days: float = 180.0
    restaurant_needs_per_week: float = 1.5
    appointment_needs_per_year: float = 4.0
    service_needs_per_year: float = 2.0
    #: Softmax temperature of the choice model; lower = more deterministic.
    choice_temperature: float = 0.6
    #: Softmax temperature when picking an *untried* option to explore.
    #: Kept sharper than choice_temperature: trying somewhere new is a
    #: deliberate, convenience-weighted act, not a uniform dice roll.
    exploration_temperature: float = 0.3
    #: Weight of the distance cost (in utility units per mobility-normalized km).
    distance_weight: float = 1.2
    #: Weight of price-preference mismatch.
    price_weight: float = 0.3
    #: Uninformed prior on entity quality before first experience.
    quality_prior: float = 2.5
    #: Std-dev of per-(user, entity) experience noise around quality+affinity.
    opinion_noise: float = 0.4
    #: Probability of skipping choice and repeating the previous pick.
    laziness: float = 0.25
    #: Lazy repeats only happen within this radius (km) of the anchor: the
    #: "default option" must be convenient.  Liked-but-far entities are
    #: revisited through the utility comparison, never through laziness.
    laziness_radius_km: float = 2.0
    #: Probability a restaurant outing is a group visit.
    group_visit_rate: float = 0.3
    #: Opinion below which a service-provider customer complains.
    complaint_threshold: float = 2.0
    #: Opinion below which a user refuses to repeat an entity when choosing.
    avoid_threshold: float = 1.5
    #: How many experiences before a restaurant opinion is "settled".
    settle_visits_frequent: int = 2
    #: Consideration radius multiplier (times user mobility).
    radius_mobility_factor: float = 2.5
    #: Fraction of trips anchored at home (the rest at work).
    home_anchor_fraction: float = 0.7
    #: Snap events to plausible clock times: restaurants at lunch/dinner,
    #: appointments and service calls during weekday business hours.
    #: Disable for the abstract always-on world of earlier versions.
    business_hours: bool = True
    #: Probability per user per year of moving house mid-simulation — the
    #: Section 4.1 confounder ("the user may have interacted with a
    #: different electrician only because she moved to a different city").
    #: A relocated user's anchors change, so they switch to providers near
    #: the new home without any opinion change.
    relocation_rate_per_year: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.choice_temperature <= 0:
            raise ValueError("choice_temperature must be positive")


_VISIT_DURATION: dict[InteractionStyle, tuple[float, float]] = {
    InteractionStyle.VISIT_FREQUENT: (45 * MINUTE, 110 * MINUTE),
    InteractionStyle.VISIT_APPOINTMENT: (30 * MINUTE, 90 * MINUTE),
}


@dataclass
class _UserEntityState:
    """What a user knows and feels about one entity."""

    opinion: float | None = None  # experienced opinion; None until first interaction
    interactions: int = 0
    settled: bool = False
    reviewed: bool = False
    avoided: bool = False


@dataclass
class SimulationResult:
    """Everything the behaviour simulator produced.

    ``events`` are physical-world facts (time-sorted); ``opinions`` is the
    ground truth used only for scoring; ``reviews`` are the explicit posts
    that existing RSPs would receive.
    """

    events: list[Event] = field(default_factory=list)
    reviews: list[PostedReview] = field(default_factory=list)
    opinions: dict[tuple[str, str], GroundTruthOpinion] = field(default_factory=dict)


class BehaviorSimulator:
    """Simulates the activity of a population against a set of entities."""

    def __init__(
        self,
        users: list[User],
        entities: list[Entity],
        config: BehaviorConfig | None = None,
        seed: int = 0,
        initial_opinions: dict[tuple[str, str], float] | None = None,
    ) -> None:
        """``initial_opinions`` pre-seeds settled experiences.

        A simulation window starts mid-life: users already have dentists
        they trust and restaurants they avoid.  Entries map
        ``(user_id, entity_id)`` to an experienced opinion in [0, 5] and are
        treated as settled prior experience (an opinion at or below the
        avoid threshold marks the entity as avoided).
        """
        if not users:
            raise ValueError("need at least one user")
        if not entities:
            raise ValueError("need at least one entity")
        self.users = users
        self.entities = entities
        self.config = config or BehaviorConfig()
        self.seed = seed
        self.initial_opinions = dict(initial_opinions or {})
        self._by_category: dict[str, list[Entity]] = {}
        for entity in entities:
            self._by_category.setdefault(entity.category, []).append(entity)
        self._entity_by_id = {entity.entity_id: entity for entity in entities}
        self._groups: dict[str, list[User]] = {}
        for user in users:
            for group_id in user.group_ids:
                self._groups.setdefault(group_id, []).append(user)

    # ------------------------------------------------------------------ run

    def run(self) -> SimulationResult:
        """Simulate the configured duration and return all activity."""
        result = SimulationResult()
        state: dict[tuple[str, str], _UserEntityState] = {}
        last_pick: dict[tuple[str, str], str] = {}  # (user, category) -> entity_id
        self._plan_relocations()
        for (user_id, entity_id), opinion in self.initial_opinions.items():
            if entity_id not in self._entity_by_id:
                raise KeyError(f"initial opinion references unknown entity {entity_id!r}")
            state[(user_id, entity_id)] = _UserEntityState(
                opinion=float(np.clip(opinion, 0.0, 5.0)),
                interactions=1,
                settled=True,
                avoided=opinion <= self.config.avoid_threshold,
            )

        for user_index, user in enumerate(self.users):
            rng = make_rng(self.seed, f"user-behaviour[{user.user_id}]")
            for category, entities in self._by_category.items():
                style = entities[0].kind.style
                rate_per_day = self._need_rate_per_day(style)
                # A user only engages with a random subset of categories at
                # full rate; taste determines appetite for the category.
                appetite = _sigmoid(user.affinity_for(category) + 0.3)
                rate_per_day *= (
                    user.engagement
                    * appetite
                    / max(1, len(self._categories_for_style(style)))
                )
                if rate_per_day <= 0:
                    continue
                t = float(rng.exponential(1.0 / rate_per_day)) * DAY
                horizon = self.config.duration_days * DAY
                while t < horizon:
                    self._handle_need(user, category, t, rng, state, last_pick, result)
                    t += float(rng.exponential(1.0 / rate_per_day)) * DAY

        result.events.sort(key=lambda event: (event.start_time, event.user_id, event.entity_id))
        result.reviews.sort(key=lambda review: review.time)
        self._finalize_opinions(state, result)
        return result

    # ------------------------------------------------------- choice & needs

    def _schedule_time(
        self, t: float, style: InteractionStyle, rng: np.random.Generator
    ) -> float:
        """Snap a raw need time to a plausible clock slot.

        Restaurants happen at lunch or dinner; appointments and service
        calls happen in weekday business hours (weekend needs wait for
        Monday) — the diurnal texture real traces have, and the reason a
        3 a.m. "dentist visit" would be absurd.
        """
        if not self.config.business_hours:
            return t
        day = int(t // DAY)
        if style in (InteractionStyle.VISIT_APPOINTMENT, InteractionStyle.CALL_SERVICE):
            day_of_week = day % 7
            if day_of_week >= 5:  # weekend -> next Monday
                day += 7 - day_of_week
            hour = float(rng.uniform(9.0, 17.0))
        else:
            if rng.random() < 0.45:
                hour = float(rng.uniform(11.5, 14.0))  # lunch
            else:
                hour = float(rng.uniform(18.0, 21.5))  # dinner
        return day * DAY + hour * HOUR

    def _handle_need(
        self,
        user: User,
        category: str,
        t: float,
        rng: np.random.Generator,
        state: dict[tuple[str, str], _UserEntityState],
        last_pick: dict[tuple[str, str], str],
        result: SimulationResult,
    ) -> None:
        style = self._by_category[category][0].kind.style
        t = self._schedule_time(t, style, rng)
        anchor = self._anchor(user, rng, t)
        entity = self._choose_entity(user, category, anchor, rng, state, last_pick)
        if entity is None:
            return
        last_pick[(user.user_id, category)] = entity.entity_id
        key = (user.user_id, entity.entity_id)
        entity_state = state.setdefault(key, _UserEntityState())

        if entity_state.opinion is None:
            entity_state.opinion = self._experience_opinion(user, entity, rng)

        if entity.kind.is_called:
            self._emit_call_sequence(user, entity, t, entity_state, rng, result)
        else:
            self._emit_visit(user, entity, t, anchor, rng, result, state)
        entity_state.interactions += 1

        needed = (
            self.config.settle_visits_frequent
            if entity.kind.style is InteractionStyle.VISIT_FREQUENT
            else 1
        )
        if not entity_state.settled and entity_state.interactions >= needed:
            entity_state.settled = True
        if entity_state.settled and entity_state.opinion <= self.config.avoid_threshold:
            entity_state.avoided = True
        if entity_state.settled and not entity_state.reviewed:
            if rng.random() < user.posting_propensity:
                entity_state.reviewed = True
                rating = int(np.clip(round(entity_state.opinion + rng.normal(0, 0.3)), 1, 5))
                result.reviews.append(
                    PostedReview(
                        user_id=user.user_id,
                        entity_id=entity.entity_id,
                        rating=rating,
                        time=t + 2 * DAY * float(rng.random()),
                    )
                )

    def _choose_entity(
        self,
        user: User,
        category: str,
        anchor: Point,
        rng: np.random.Generator,
        state: dict[tuple[str, str], _UserEntityState],
        last_pick: dict[tuple[str, str], str],
    ) -> Entity | None:
        candidates = self._consideration_set(user, category, anchor)
        if not candidates:
            return None

        previous_id = last_pick.get((user.user_id, category))
        if previous_id is not None and rng.random() < self.config.laziness:
            previous_state = state.get((user.user_id, previous_id))
            if previous_state is None or not previous_state.avoided:
                previous = self._entity_by_id.get(previous_id)
                # Laziness only defaults to the previous pick when that pick
                # is actually convenient; nobody re-crosses the whole town
                # out of inertia.  A liked-but-far entity still wins through
                # the utility comparison below, not through laziness.
                lazy_radius = min(user.mobility, self.config.laziness_radius_km)
                if (
                    previous is not None
                    and anchor.distance_to(previous.location) <= lazy_radius
                ):
                    return previous

        viable: list[Entity] = []
        utilities: list[float] = []
        for entity in candidates:
            entity_state = state.get((user.user_id, entity.entity_id))
            if entity_state is not None and entity_state.avoided:
                continue
            expected = (
                entity_state.opinion
                if entity_state is not None and entity_state.opinion is not None
                else self.config.quality_prior
            )
            distance = anchor.distance_to(entity.location)
            utility = (
                expected
                - self.config.distance_weight * distance / user.mobility
                - self.config.price_weight * abs(entity.price_level - user.price_preference)
            )
            viable.append(entity)
            utilities.append(utility)
        if not viable:
            return None

        # Exploration is distance-aware: a user trying somewhere new still
        # weighs how far away the candidates are (nobody samples a dentist
        # across town on a whim), so exploration reuses the same utilities.
        untried_indices = [
            index
            for index, entity in enumerate(viable)
            if state.get((user.user_id, entity.entity_id)) is None
        ]
        if untried_indices and rng.random() < user.exploration:
            untried_weights = (
                np.asarray([utilities[i] for i in untried_indices], dtype=np.float64)
                / self.config.exploration_temperature
            )
            untried_weights -= untried_weights.max()
            untried_probabilities = np.exp(untried_weights)
            untried_probabilities /= untried_probabilities.sum()
            pick = int(rng.choice(len(untried_indices), p=untried_probabilities))
            return viable[untried_indices[pick]]

        weights = np.asarray(utilities, dtype=np.float64) / self.config.choice_temperature
        weights -= weights.max()
        probabilities = np.exp(weights)
        probabilities /= probabilities.sum()
        return viable[int(rng.choice(len(viable), p=probabilities))]

    def _consideration_set(
        self, user: User, category: str, anchor: Point
    ) -> list[Entity]:
        entities = self._by_category.get(category, [])
        radius = user.mobility * self.config.radius_mobility_factor
        nearby = [
            entity
            for entity in entities
            if anchor.distance_to(entity.location) <= radius
        ]
        # A user with no nearby option considers the closest few anyway;
        # needs do not disappear because the city is sparse.
        if not nearby:
            nearby = sorted(
                entities,
                key=lambda entity: anchor.distance_to(entity.location),
            )[:3]
        return nearby

    # ------------------------------------------------------------- emission

    def _emit_visit(
        self,
        user: User,
        entity: Entity,
        t: float,
        anchor: Point,
        rng: np.random.Generator,
        result: SimulationResult,
        state: dict[tuple[str, str], _UserEntityState],
    ) -> None:
        low, high = _VISIT_DURATION[entity.kind.style]
        duration = float(rng.uniform(low, high))
        visit = VisitEvent(
            user_id=user.user_id,
            entity_id=entity.entity_id,
            start_time=t,
            duration=duration,
            origin=anchor,
            distance_km=anchor.distance_to(entity.location),
            group_id="",
        )
        if (
            entity.kind.style is InteractionStyle.VISIT_FREQUENT
            and user.group_ids
            and rng.random() < self.config.group_visit_rate
        ):
            group_id = user.group_ids[int(rng.integers(0, len(user.group_ids)))]
            members = self._groups.get(group_id, [user])
            for member in members:
                member_anchor = member.home
                result.events.append(
                    VisitEvent(
                        user_id=member.user_id,
                        entity_id=entity.entity_id,
                        start_time=t,
                        duration=duration,
                        origin=member_anchor,
                        distance_km=member_anchor.distance_to(entity.location),
                        group_id=group_id,
                    )
                )
                # Co-visiting is experiencing: every member forms (or
                # reinforces) an opinion, even though the outing was not
                # their own choice.
                if member.user_id == user.user_id:
                    continue
                member_state = state.setdefault(
                    (member.user_id, entity.entity_id), _UserEntityState()
                )
                if member_state.opinion is None:
                    member_state.opinion = self._experience_opinion(member, entity, rng)
                member_state.interactions += 1
        else:
            result.events.append(visit)

    def _emit_call_sequence(
        self,
        user: User,
        entity: Entity,
        t: float,
        entity_state: _UserEntityState,
        rng: np.random.Generator,
        result: SimulationResult,
    ) -> None:
        # Booking call, then the provider does the job at the user's home.
        booking = CallEvent(
            user_id=user.user_id,
            entity_id=entity.entity_id,
            start_time=t,
            duration=float(rng.uniform(90, 300)),
        )
        result.events.append(booking)
        opinion = entity_state.opinion if entity_state.opinion is not None else 2.5
        if opinion < self.config.complaint_threshold:
            # Dissatisfied: short, tightly spaced follow-up complaint calls —
            # the paper's "repeated phone calls because the plumber did a
            # poor job" confounder.
            n_complaints = int(rng.integers(1, 4))
            call_time = t
            for _ in range(n_complaints):
                call_time += float(rng.uniform(4 * HOUR, 2 * DAY))
                call_time = self._schedule_time(
                    call_time, InteractionStyle.CALL_SERVICE, rng
                )
                result.events.append(
                    CallEvent(
                        user_id=user.user_id,
                        entity_id=entity.entity_id,
                        start_time=call_time,
                        duration=float(rng.uniform(15, 90)),
                    )
                )

    # ------------------------------------------------------------- plumbing

    def _plan_relocations(self) -> None:
        """Decide which users move, when, and where."""
        self._relocations: dict[str, tuple[float, Point, Point]] = {}
        rate = self.config.relocation_rate_per_year
        if rate <= 0:
            return
        xs = [entity.location.x for entity in self.entities]
        ys = [entity.location.y for entity in self.entities]
        horizon = self.config.duration_days * DAY
        years = self.config.duration_days / 365.0
        for user in self.users:
            rng = make_rng(self.seed, f"relocation[{user.user_id}]")
            if rng.random() >= rate * years:
                continue
            move_time = float(rng.uniform(0.2, 0.8)) * horizon
            new_home = Point(
                float(rng.uniform(min(xs), max(xs))),
                float(rng.uniform(min(ys), max(ys))),
            )
            new_work = Point(
                float(rng.uniform(min(xs), max(xs))),
                float(rng.uniform(min(ys), max(ys))),
            )
            self._relocations[user.user_id] = (move_time, new_home, new_work)

    def _home_work_at(self, user: User, t: float) -> tuple[Point, Point]:
        relocation = getattr(self, "_relocations", {}).get(user.user_id)
        if relocation is not None and t >= relocation[0]:
            return relocation[1], relocation[2]
        return user.home, user.work

    def _anchor(self, user: User, rng: np.random.Generator, t: float) -> Point:
        home, work = self._home_work_at(user, t)
        if rng.random() < self.config.home_anchor_fraction:
            return home
        return work

    def _experience_opinion(
        self, user: User, entity: Entity, rng: np.random.Generator
    ) -> float:
        raw = (
            entity.quality
            + user.affinity_for(entity.category)
            + float(rng.normal(0.0, self.config.opinion_noise))
        )
        return float(np.clip(raw, 0.0, 5.0))

    def _need_rate_per_day(self, style: InteractionStyle) -> float:
        if style is InteractionStyle.VISIT_FREQUENT:
            return self.config.restaurant_needs_per_week / 7.0
        if style is InteractionStyle.VISIT_APPOINTMENT:
            return self.config.appointment_needs_per_year / 365.0
        return self.config.service_needs_per_year / 365.0

    def _categories_for_style(self, style: InteractionStyle) -> list[str]:
        return [
            category
            for category, entities in self._by_category.items()
            if entities[0].kind.style is style
        ]

    def _finalize_opinions(
        self,
        state: dict[tuple[str, str], _UserEntityState],
        result: SimulationResult,
    ) -> None:
        for (user_id, entity_id), entity_state in state.items():
            if entity_state.opinion is None:
                continue
            result.opinions[(user_id, entity_id)] = GroundTruthOpinion(
                user_id=user_id,
                entity_id=entity_id,
                opinion=entity_state.opinion,
                settled=entity_state.settled,
            )


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))
