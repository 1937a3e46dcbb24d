"""Wearable emotion sensing — the paper's scoped-out future direction.

Section 3.1: "Given the increasing array of sensors on wearable devices
(e.g., heart rate monitors on smartwatches), an RSP may be able to infer a
user's opinion about an entity by monitoring the user's emotions when
interacting with the entity.  In this paper, we restrict our consideration
to more modest means..."  This module un-restricts it, as an opt-in
extension the A14 benchmark evaluates.

The wearable is modelled at the level the cited idea needs: during a
visit, the device emits *valence* samples — a scalar in [-1, 1] whose mean
tracks the user's true affect toward the entity, buried in substantial
per-sample noise plus a per-user baseline offset (some people's heart rate
says nothing).  The signal is deliberately weak; the question A14 answers
is whether even a weak affect channel improves opinion inference when
added to the behavioural features — not whether smartwatches read minds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.clock import MINUTE
from repro.util.rng import make_rng
from repro.world.behavior import SimulationResult
from repro.world.events import VisitEvent


@dataclass(frozen=True)
class EmotionSample:
    """One wearable affect reading during a visit."""

    time: float
    valence: float  # [-1, 1]

    def __post_init__(self) -> None:
        if not -1.0 <= self.valence <= 1.0:
            raise ValueError("valence must lie in [-1, 1]")


@dataclass(frozen=True)
class WearableConfig:
    """Signal-quality knobs of the emotion channel."""

    #: Seconds between affect readings during a visit.
    sample_interval: float = 5 * MINUTE
    #: Per-sample noise std-dev (the signal is weak by construction).
    sample_noise: float = 0.45
    #: Std-dev of the per-user baseline offset (some users are unreadable).
    user_baseline_noise: float = 0.2

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.sample_noise < 0 or self.user_baseline_noise < 0:
            raise ValueError("noise levels must be non-negative")


def valence_of_opinion(opinion: float) -> float:
    """Map a 0-5 opinion to the mean affect in [-1, 1] (2.5 is neutral)."""
    if not 0.0 <= opinion <= 5.0:
        raise ValueError("opinion must lie in [0, 5]")
    return (opinion - 2.5) / 2.5


def generate_emotion_trace(
    user_id: str,
    result: SimulationResult,
    horizon: float,
    config: WearableConfig | None = None,
    seed: int = 0,
) -> dict[str, list[EmotionSample]]:
    """Per-entity affect samples one user's wearable would have recorded.

    Samples are emitted during the user's visits; their latent mean is the
    user's true opinion of the entity (that is what emotions *are* in this
    model), wrapped in per-sample noise and the user's baseline offset.
    """
    config = config or WearableConfig()
    rng = make_rng(seed, f"wearable/{user_id}")
    baseline = float(rng.normal(0.0, config.user_baseline_noise))

    samples: dict[str, list[EmotionSample]] = {}
    for event in result.events:
        if not isinstance(event, VisitEvent):
            continue
        if event.user_id != user_id or event.start_time >= horizon:
            continue
        truth = result.opinions.get((user_id, event.entity_id))
        mean_valence = valence_of_opinion(truth.opinion) if truth is not None else 0.0
        t = event.start_time + config.sample_interval
        while t < event.end_time:
            raw = mean_valence + baseline + float(rng.normal(0.0, config.sample_noise))
            samples.setdefault(event.entity_id, []).append(
                EmotionSample(time=t, valence=float(np.clip(raw, -1.0, 1.0)))
            )
            t += config.sample_interval
    return samples


def mean_valence_by_entity(
    samples: dict[str, list[EmotionSample]]
) -> dict[str, float]:
    """The per-entity affect feature the client would compute locally."""
    return {
        entity_id: float(np.mean([s.valence for s in entity_samples]))
        for entity_id, entity_samples in samples.items()
        if entity_samples
    }


def valence_feature(
    user_id: str, result: SimulationResult, horizon: float, seed: int
) -> dict[str, float]:
    """One user's per-entity affect feature over ``[0, horizon)``: the mean
    valence of what their wearable recorded, as training and deployment
    both feed it to feature extraction."""
    return mean_valence_by_entity(generate_emotion_trace(user_id, result, horizon, seed=seed))
