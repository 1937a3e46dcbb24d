"""Feature extraction for the effort-is-endorsement classifier.

Section 4.1 names three families of input features, all computed *on the
client* (only the client can see across its own entities):

1. **Effort** — what the user gives up to interact: distance travelled,
   time spent on premises.
2. **Exploration** — did the user settle on this entity after trying
   alternatives, or stick with it out of inertia?  "A user's repeated
   interactions with an electrician mean more if he has availed the
   services of other electricians previously."
3. **Choice set** — how many similar options the user passed over: an
   entity chosen among twenty comparable neighbours carries more signal
   than a monopoly.

Plus the repetition backbone (counts, spans, gaps) and the complaint
markers the paper warns about (short, tightly spaced calls are the
*opposite* of endorsement).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.sensing.resolution import EntityResolver, InteractionType, ObservedInteraction
from repro.util.clock import DAY, HOUR, MINUTE
from repro.world.entities import Entity
from repro.world.geography import Point


@dataclass(frozen=True)
class OpinionFeatures:
    """The feature vector for one (user, entity) pair.

    All fields are floats so ``as_vector`` is a cheap, stable mapping; the
    classifier never sees anything but this.
    """

    # Repetition backbone
    n_interactions: float
    span_days: float
    mean_gap_days: float
    # Effort
    mean_travel_km: float
    max_travel_km: float
    mean_duration_min: float
    total_duration_hours: float
    #: Mean travel minus distance to the nearest similar alternative —
    #: positive means the user systematically passes closer options.
    excess_travel_km: float
    # Exploration
    n_alternatives_tried: float
    tried_before_settling: float  # 0/1: alternatives tried before the last switch here
    #: 1 when the user's most recent interaction in the category was with a
    #: *different* entity — they have moved on (negative signal).
    switched_away: float
    # Choice set
    n_similar_nearby: float
    # Complaint markers
    call_fraction: float
    short_call_fraction: float  # calls under a minute
    burst_fraction: float  # gaps under 3 days
    # Optional wearable affect channel (Section 3.1's scoped-out idea;
    # 0.0 when no wearable data is available — see repro.sensing.wearables).
    mean_valence: float = 0.0

    def as_vector(self) -> np.ndarray:
        return np.asarray(
            [getattr(self, field.name) for field in fields(self)], dtype=np.float64
        )

    @staticmethod
    def feature_names() -> list[str]:
        return [field.name for field in fields(OpinionFeatures)]


#: Radius within which another entity counts as a "similar nearby option".
SIMILAR_RADIUS_KM = 4.0
#: Attribute-similarity floor for the choice-set feature.
SIMILARITY_FLOOR = 0.5
#: A call shorter than this reads as a hang-up/complaint, seconds.
SHORT_CALL_SECONDS = 60.0
#: Gaps under this many days count toward the burst fraction.
BURST_GAP_DAYS = 3.0


@dataclass(frozen=True)
class ChoiceSet:
    """What the static catalog says about one entity's alternatives."""

    #: Other entities at least :data:`SIMILARITY_FLOOR` similar to it.
    comparable: tuple[Entity, ...]
    #: How many of them lie within :data:`SIMILAR_RADIUS_KM` of it.
    n_similar_nearby: int
    #: Ids of every catalog entity of its kind and category, its own too.
    same_category_ids: frozenset[str]


class CatalogDirectory:
    """The public entity directory and everything derived from it alone.

    It holds the entity map, the resolver (the phone map and one spatial
    index) and each entity's :class:`ChoiceSet`, built on first use.  None
    of it depends on a user, so one directory serves every client of a
    deployment.
    """

    def __init__(self, entities: Iterable[Entity]) -> None:
        self.entities: dict[str, Entity] = {entity.entity_id: entity for entity in entities}
        self._choice_sets: dict[str, ChoiceSet] = {}

    @classmethod
    def of(
        cls, catalog: CatalogDirectory | Iterable[Entity] | Mapping[str, Entity]
    ) -> CatalogDirectory:
        """``catalog`` if it is a directory, else a directory over its
        entities (a list, or an entity-id mapping)."""
        if isinstance(catalog, CatalogDirectory):
            return catalog
        if isinstance(catalog, Mapping):
            catalog = catalog.values()
        return cls(catalog)

    @cached_property
    def resolver(self) -> EntityResolver:
        """The entity resolver over this directory, built on first use:
        feature extraction over a bare mapping never needs it."""
        return EntityResolver(list(self.entities.values()))

    def choice_set(self, entity: Entity) -> ChoiceSet:
        """``entity``'s alternatives in this catalog, computed once."""
        choice = self._choice_sets.get(entity.entity_id)
        if choice is None:
            catalog = self.entities.values()
            comparable = tuple(
                other
                for other in catalog
                if other.entity_id != entity.entity_id
                and entity.similarity_to(other) >= SIMILARITY_FLOOR
            )
            choice = self._choice_sets[entity.entity_id] = ChoiceSet(
                comparable=comparable,
                # Choice set: comparable options in the entity's own
                # neighbourhood.
                n_similar_nearby=sum(
                    1
                    for other in comparable
                    if other.location.distance_to(entity.location) <= SIMILAR_RADIUS_KM
                ),
                same_category_ids=frozenset(
                    other.entity_id
                    for other in catalog
                    if other.kind is entity.kind and other.category == entity.category
                ),
            )
        return choice


def extract_features(
    entity: Entity,
    own_interactions: list[ObservedInteraction],
    all_interactions: list[ObservedInteraction],
    catalog: CatalogDirectory | Mapping[str, Entity],
    home: Point,
    emotion_valence: float | None = None,
) -> OpinionFeatures:
    """Compute the feature vector for one entity from the client's view.

    ``own_interactions`` are with ``entity``; ``all_interactions`` are the
    user's full observed stream (used for exploration features);
    ``catalog`` is the public entity directory, as a
    :class:`CatalogDirectory` or an entity-id mapping; ``home`` the user's
    primary anchor as the client inferred it.  ``emotion_valence`` is the
    optional wearable affect mean for this entity (defaults to neutral 0).
    """
    if not own_interactions:
        raise ValueError("cannot extract features without interactions")
    choice = CatalogDirectory.of(catalog).choice_set(entity)
    category_stream = [
        i for i in all_interactions if i.entity_id in choice.same_category_ids
    ]
    return _features(entity, own_interactions, category_stream, choice, home, emotion_valence)


def _features(
    entity: Entity,
    own_interactions: list[ObservedInteraction],
    category_stream: list[ObservedInteraction],
    choice: ChoiceSet,
    home: Point,
    emotion_valence: float | None,
) -> OpinionFeatures:
    """:func:`extract_features` given the user's interactions with the
    entity's kind and category, in stream order."""
    times = sorted(i.time for i in own_interactions)
    n = len(own_interactions)
    span = times[-1] - times[0]
    gaps = np.diff(times)
    travels = [i.travel_km for i in own_interactions if i.travel_km > 0]
    durations = [i.duration for i in own_interactions]
    calls = [i for i in own_interactions if i.interaction_type is InteractionType.CALL]
    short_calls = [c for c in calls if c.duration < SHORT_CALL_SECONDS]

    # Excess travel compares against the alternative most convenient *to
    # the user*, wherever it is — that is the option the user passes over.
    nearest_alternative_km = min(
        (home.distance_to(other.location) for other in choice.comparable),
        default=home.distance_to(entity.location),
    )

    alternatives_tried = {
        i.entity_id for i in category_stream if i.entity_id != entity.entity_id
    }
    first_own = times[0]
    tried_before = any(
        i.entity_id != entity.entity_id and i.time < first_own for i in category_stream
    )
    last_in_category = max(category_stream, key=lambda i: i.time, default=None)
    switched_away = (
        1.0
        if last_in_category is not None and last_in_category.entity_id != entity.entity_id
        else 0.0
    )

    mean_travel = float(np.mean(travels)) if travels else 0.0
    return OpinionFeatures(
        n_interactions=float(n),
        span_days=span / DAY,
        mean_gap_days=float(np.mean(gaps)) / DAY if gaps.size else 0.0,
        mean_travel_km=mean_travel,
        max_travel_km=float(max(travels)) if travels else 0.0,
        mean_duration_min=float(np.mean(durations)) / MINUTE,
        total_duration_hours=float(np.sum(durations)) / HOUR,
        excess_travel_km=mean_travel - nearest_alternative_km if travels else 0.0,
        n_alternatives_tried=float(len(alternatives_tried)),
        tried_before_settling=1.0 if tried_before else 0.0,
        switched_away=switched_away,
        n_similar_nearby=float(choice.n_similar_nearby),
        call_fraction=len(calls) / n,
        short_call_fraction=len(short_calls) / n,
        burst_fraction=float(np.mean(gaps < BURST_GAP_DAYS * DAY)) if gaps.size else 0.0,
        mean_valence=emotion_valence if emotion_valence is not None else 0.0,
    )


def extract_all_features(
    interactions: list[ObservedInteraction],
    catalog: CatalogDirectory | Mapping[str, Entity],
    home: Point,
    emotion: dict[str, float] | None = None,
) -> dict[str, OpinionFeatures]:
    """Feature vectors for every entity in one user's interaction stream.

    ``catalog`` is as for :func:`extract_features`.  ``emotion``
    optionally maps entity_id -> mean wearable valence (see
    :mod:`repro.sensing.wearables`).
    """
    directory = CatalogDirectory.of(catalog)
    entities = directory.entities
    by_entity: dict[str, list[ObservedInteraction]] = {}
    by_category: dict[tuple, list[ObservedInteraction]] = {}
    for interaction in interactions:
        by_entity.setdefault(interaction.entity_id, []).append(interaction)
        entity = entities.get(interaction.entity_id)
        if entity is not None:
            by_category.setdefault((entity.kind, entity.category), []).append(interaction)
    features: dict[str, OpinionFeatures] = {}
    for entity_id, own in by_entity.items():
        entity = entities.get(entity_id)
        if entity is None:
            continue
        features[entity_id] = _features(
            entity,
            own,
            by_category[(entity.kind, entity.category)],
            directory.choice_set(entity),
            home,
            (emotion or {}).get(entity_id),
        )
    return features
