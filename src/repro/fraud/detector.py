"""The fake-activity detector: does this history look like a real user?

Section 4.3: "an RSP's implicit inference of a user's recommendation of an
entity should verify whether the user's engagement with that entity
reflects that of a typical user" — calls should be "appropriately spaced
apart and of reasonable duration"; an employee's daily presence should not
read as endorsement.  The detector scores each anonymous history against
the :class:`~repro.fraud.profiles.TypicalProfile` for its entity kind and
flags the specific violations, so verdicts are explainable.

Histories too short to judge are left alone, exactly as the paper argues:
"though it is hard to evaluate whether the interactions ... are fake if the
number of interactions is small, such an interaction history will have
limited influence on others."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.fraud.profiles import TypicalProfile
from repro.privacy.history_store import HistoryStore, InteractionHistory
from repro.util.clock import DAY


class FraudFlag(enum.Enum):
    """Specific ways a history deviates from typical behaviour."""

    #: Interactions packed closer than any honest user's (back-to-back calls).
    BURST = "burst"
    #: More interactions per unit time than the honest 99th percentile.
    RATE = "rate"
    #: Interactions far shorter than honest ones (hang-up-after-dial calls).
    SHORT_DURATION = "short_duration"
    #: Metronomic or daily-presence regularity (employees, scripted bots).
    REGULARITY = "regularity"
    #: More total interactions than any plausible customer accumulates.
    VOLUME = "volume"


@dataclass(frozen=True)
class HistoryVerdict:
    """The detector's judgement of one history."""

    history_id: str
    entity_id: str
    n_interactions: int
    flags: tuple[FraudFlag, ...]
    judged: bool  # False when the history was too short to evaluate

    @property
    def suspicious(self) -> bool:
        return self.judged and bool(self.flags)


@dataclass(frozen=True)
class DetectorConfig:
    """Detection thresholds."""

    #: Histories with fewer interactions are not judged (limited influence).
    min_interactions_to_judge: int = 3
    #: Gap regularity: flag if the coefficient of variation of gaps falls
    #: below this with at least ``regularity_min_interactions`` events.
    regularity_cv_threshold: float = 0.15
    regularity_min_interactions: int = 8
    #: Daily-presence detection: median gap within this fraction of 24 h.
    daily_gap_tolerance: float = 0.15

    def __post_init__(self) -> None:
        if self.min_interactions_to_judge < 1:
            raise ValueError("min_interactions_to_judge must be >= 1")


class FraudDetector:
    """Scores histories against per-kind typical profiles."""

    def __init__(
        self,
        profiles: dict[str, TypicalProfile],
        entity_kinds: dict[str, str],
        config: DetectorConfig | None = None,
    ) -> None:
        self.profiles = profiles
        self.entity_kinds = entity_kinds
        self.config = config or DetectorConfig()

    def judge(self, history: InteractionHistory) -> HistoryVerdict:
        """Judge one history; returns an explainable verdict."""
        config = self.config
        if history.n_interactions < config.min_interactions_to_judge:
            return HistoryVerdict(
                history_id=history.history_id,
                entity_id=history.entity_id,
                n_interactions=history.n_interactions,
                flags=(),
                judged=False,
            )
        kind = self.entity_kinds.get(history.entity_id)
        profile = self.profiles.get(kind) if kind is not None else None
        if profile is None:
            return HistoryVerdict(
                history_id=history.history_id,
                entity_id=history.entity_id,
                n_interactions=history.n_interactions,
                flags=(),
                judged=False,
            )

        flags: list[FraudFlag] = []
        gaps = history.gaps()
        durations = history.durations()

        positive_gaps = [g for g in gaps if g > 0]
        min_gap = min(positive_gaps) if positive_gaps else 0.0
        if gaps and (not positive_gaps or profile.gaps.below_floor(min_gap)):
            flags.append(FraudFlag.BURST)

        # A history whose every record was folded away has no time span
        # left; it spans at least a day, like any other.
        times = sorted(history.event_times())
        span = max(times[-1] - times[0], DAY) if times else DAY
        rate = history.n_interactions / span
        typical_rate_ceiling = profile.counts.p99 / max(profile.gaps.median, DAY)
        if rate > typical_rate_ceiling and history.n_interactions > profile.counts.median:
            flags.append(FraudFlag.RATE)

        if durations and float(np.median(durations)) < profile.durations.p01:
            flags.append(FraudFlag.SHORT_DURATION)

        if len(gaps) + 1 >= config.regularity_min_interactions and positive_gaps:
            gap_array = np.asarray(positive_gaps)
            mean_gap = float(gap_array.mean())
            cv = float(gap_array.std() / mean_gap) if mean_gap > 0 else 0.0
            metronomic = cv < config.regularity_cv_threshold
            daily = abs(mean_gap - DAY) < config.daily_gap_tolerance * DAY and cv < 0.5
            if metronomic or daily:
                flags.append(FraudFlag.REGULARITY)

        if profile.counts.above_ceiling(float(history.n_interactions)):
            flags.append(FraudFlag.VOLUME)

        return HistoryVerdict(
            history_id=history.history_id,
            entity_id=history.entity_id,
            n_interactions=history.n_interactions,
            flags=tuple(flags),
            judged=True,
        )

    def filter_store(self, store: HistoryStore) -> tuple[list[InteractionHistory], list[HistoryVerdict]]:
        """Split a store into accepted histories and the suspicious verdicts.

        Accepted histories (including unjudgeable short ones) feed
        aggregation; suspicious ones are discarded, per Section 4.3.
        """
        accepted: list[InteractionHistory] = []
        rejected: list[HistoryVerdict] = []
        for history in store.all_histories():
            verdict = self.judge(history)
            if verdict.suspicious:
                rejected.append(verdict)
            else:
                accepted.append(history)
        return accepted, rejected
