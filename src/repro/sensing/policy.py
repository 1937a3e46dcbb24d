"""Location-sampling policies and their energy model (Section 5).

The paper notes that continuous location tracking is energy-prohibitive and
prescribes the standard remedies ([27], [28]): use the accelerometer to
sample "only when the user has been stationary for a few minutes and
resample only if the user moves", and prefer WiFi/cell positioning over GPS.

A :class:`SensingPolicy` controls when the trace generator takes fixes and
what each fix costs; the A6 energy benchmark compares policies on energy
drawn vs visits recalled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.clock import HOUR, MINUTE


@dataclass(frozen=True)
class SensingPolicy:
    """When to take location fixes, and what sensing costs.

    Energy constants follow the usual smartphone ballpark figures: a GPS
    fix costs on the order of a joule; continuous accelerometer monitoring
    is three orders of magnitude cheaper per unit time.
    """

    name: str
    #: Fix schedule at the start of each stay: offsets (seconds) from the
    #: moment the user becomes stationary.  A short burst confirms the dwell
    #: (stay-point extraction needs a few fixes spanning its minimum
    #: duration); after the burst, fixes repeat every
    #: ``stationary_interval``.
    burst_offsets: tuple[float, ...]
    #: Seconds between keep-alive fixes once the burst is exhausted.  The
    #: accelerometer-gated policy sets this long: if the device has not
    #: moved, re-fixing adds nothing.
    stationary_interval: float
    #: Seconds between fixes while the user is moving (travel segments);
    #: None means no fixes while moving (the accelerometer already knows
    #: the user is in transit, so position fixes are wasted energy).
    moving_interval: float | None
    #: Whether the accelerometer gates GPS duty-cycling.
    accelerometer_gated: bool
    #: Energy per positioning fix, joules.
    fix_cost_j: float = 1.0
    #: Accelerometer monitoring cost, joules per hour (only if gated).
    accelerometer_cost_j_per_hour: float = 3.6

    def __post_init__(self) -> None:
        offsets = self.burst_offsets
        if any(o < 0 for o in offsets) or any(a > b for a, b in zip(offsets, offsets[1:])):
            raise ValueError("burst_offsets must be non-negative and non-decreasing")
        if self.stationary_interval <= 0:
            raise ValueError("stationary_interval must be positive")
        if self.moving_interval is not None and self.moving_interval <= 0:
            raise ValueError("moving_interval must be positive when set")

    def energy_joules(self, n_fixes: int, duration_seconds: float) -> float:
        """Total sensing energy for a trace."""
        if n_fixes < 0 or duration_seconds < 0:
            raise ValueError("counts and durations must be non-negative")
        energy = n_fixes * self.fix_cost_j
        if self.accelerometer_gated:
            energy += self.accelerometer_cost_j_per_hour * duration_seconds / HOUR
        return energy


def continuous_policy(interval: float = 60.0) -> SensingPolicy:
    """Naive baseline: a GPS fix every ``interval`` seconds, always."""
    return SensingPolicy(
        name="continuous",
        burst_offsets=(),
        stationary_interval=interval,
        moving_interval=interval,
        accelerometer_gated=False,
    )


def duty_cycled_policy(stationary_interval: float = 1 * HOUR) -> SensingPolicy:
    """Accelerometer-gated duty cycling per Section 5.

    No fixes while moving; on becoming stationary, a three-fix burst over
    the first ~15 minutes confirms the dwell, then hourly keep-alive fixes
    for as long as the accelerometer reports no movement.
    """
    return SensingPolicy(
        name="duty-cycled",
        burst_offsets=(30.0, 5 * MINUTE + 30.0, 15 * MINUTE + 30.0),
        stationary_interval=stationary_interval,
        moving_interval=None,
        accelerometer_gated=True,
    )
