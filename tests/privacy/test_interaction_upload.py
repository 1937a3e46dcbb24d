"""An interaction upload's numbers are finite, or it does not exist.

A NaN fails every comparison, so a sign check alone lets it through;
each numeric field is checked for NaN and both infinities at
construction.
"""

import math

import pytest

from repro.privacy.history_store import InteractionUpload

VALID = {"event_time": 50.0, "duration": 60.0, "travel_km": 1.5}


def build(**numbers) -> InteractionUpload:
    return InteractionUpload("h", "e", "visit", **{**VALID, **numbers})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_event_time_is_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        build(event_time=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_duration_is_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        build(duration=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_travel_is_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        build(travel_km=bad)


def test_finite_numbers_construct_and_signs_still_checked():
    assert build().duration == 60.0
    assert build(event_time=-5.0, duration=0.0, travel_km=0.0).event_time == -5.0
    for field in ("duration", "travel_km"):
        with pytest.raises(ValueError, match="non-negative"):
            build(**{field: -1.0})
