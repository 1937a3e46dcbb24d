"""Client-side personalization — the install incentive of Section 5.

"A user is more likely to install the app if she herself benefits from it
... for any search query issued by a user, the RSP could tailor results
based on the user's history."

Crucially this happens *on the device*: the server returns its normal
anonymous ranking, and the client re-ranks it against the user's own
transparency log — entities the user already likes float up, entities they
avoided sink, and their revealed preferences (price point, how far they
actually travel) adjust the rest.  Nothing about the user's history leaves
the phone to make this work, so the incentive costs no privacy.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.world.geography import Point

if TYPE_CHECKING:  # avoid core -> client and core -> serve imports at runtime
    from repro.client.transparency import TransparencyLog
    from repro.serve.engine import ServeResponse, ServeResult


@dataclass(frozen=True)
class PersonalizationWeights:
    """How strongly personal signals move the server ranking."""

    #: Added per star of the user's own (inferred or corrected) rating,
    #: relative to a neutral 2.5.
    own_opinion: float = 0.6
    #: Penalty per km beyond the user's typical travel tolerance.
    distance: float = 0.15
    #: The user's typical acceptable trip, km.
    travel_tolerance_km: float = 3.0

    def __post_init__(self) -> None:
        if self.travel_tolerance_km <= 0:
            raise ValueError("travel tolerance must be positive")


@dataclass(frozen=True)
class PersonalizedResult:
    """A server result with its client-side adjustment broken out."""

    base: "ServeResult"
    personal_adjustment: float

    @property
    def score(self) -> float:
        return self.base.score + self.personal_adjustment

    @property
    def entity_id(self) -> str:
        return self.base.entity.entity_id


def personalize(
    response: "ServeResponse",
    transparency: "TransparencyLog",
    home: Point,
    weights: PersonalizationWeights | None = None,
) -> list[PersonalizedResult]:
    """Re-rank a server response against the user's own inference log.

    The adjustment is explainable per result: the user's own opinion of the
    entity (if the client inferred or the user stated one) and the trip
    length from the user's anchor.
    """
    weights = weights or PersonalizationWeights()
    entries = {entry.entity_id: entry for entry in transparency.audit()}
    personalized: list[PersonalizedResult] = []
    for result in response.results:
        adjustment = 0.0
        entry = entries.get(result.entity.entity_id)
        if entry is not None and entry.effective_rating is not None:
            adjustment += weights.own_opinion * (entry.effective_rating - 2.5)
        trip = home.distance_to(result.entity.location)
        if trip > weights.travel_tolerance_km:
            adjustment -= weights.distance * (trip - weights.travel_tolerance_km)
        personalized.append(PersonalizedResult(base=result, personal_adjustment=adjustment))
    personalized.sort(key=lambda r: (-r.score, r.base.distance_km, r.entity_id))
    return personalized
