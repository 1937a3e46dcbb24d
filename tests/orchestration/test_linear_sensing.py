"""Client sensing in ``run_epochs`` costs what is new in each epoch.

Every epoch observes each device at a longer horizon.  Regenerating and
refolding the whole stream each time makes the work grow with
epochs x stream; windowed traces keep it near one pass over the stream.
The fixes are drawn and folded as columns, so counting happens at the
column level: rows drawn by the sensor model, rows folded by the
stay-point fold.
"""

import pytest

from repro.core.classifier import OpinionClassifier, synthetic_training_pairs
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig
from repro.sensing import location, sensors, traces
from repro.sensing.sensors import generate_trace
from repro.util.clock import DAY
from repro.world import geography
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town


@pytest.fixture(scope="module")
def counted_run():
    """One ``run_epochs`` with counters on the column draw, the fold, and
    the constructors of sample and point objects; plus the row count of
    one full pass over every device's stream."""
    town = build_town(TownConfig(n_users=40), seed=7)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=30), seed=7
    ).run()
    config = PipelineConfig(horizon_days=30.0, seed=7)
    classifier = OpinionClassifier().fit(*synthetic_training_pairs(60, seed=0))
    one_pass = sum(
        len(generate_trace(user.user_id, town, result, 30 * DAY, seed=7).locations)
        for user in town.users
    )

    counts = {"generated": 0, "folded": 0, "samples": 0, "points": 0}
    noisy_fixes = sensors._noisy_fixes
    fold_extend = location.StayPointFold.extend
    sample_init = traces.LocationSample.__init__
    point_init = geography.Point.__init__

    def counting_fixes(times, *args, **kwargs):
        counts["generated"] += len(times)
        return noisy_fixes(times, *args, **kwargs)

    def counting_extend(self, fixes):
        counts["folded"] += len(fixes)
        return fold_extend(self, fixes)

    def counting_sample(self, *args, **kwargs):
        counts["samples"] += 1
        sample_init(self, *args, **kwargs)

    def counting_point(self, *args, **kwargs):
        counts["points"] += 1
        point_init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sensors, "_noisy_fixes", counting_fixes)
        patch.setattr(location.StayPointFold, "extend", counting_extend)
        patch.setattr(traces.LocationSample, "__init__", counting_sample)
        patch.setattr(geography.Point, "__init__", counting_point)
        run_epochs(town, result, config, n_epochs=8, classifier=classifier)
    return one_pass, counts


def test_samples_generated_and_folded_stay_linear(counted_run):
    one_pass, counts = counted_run
    generated, folded = counts["generated"], counts["folded"]
    assert one_pass > 0
    assert generated > 0 and folded > 0
    assert generated <= 1.5 * one_pass, (generated, one_pass)
    assert folded <= 1.5 * one_pass, (folded, one_pass)


def test_run_epochs_builds_no_per_fix_objects(counted_run):
    """Only stays and interactions become objects: no sample object is
    built, and points (stay centres, first fixes) are far fewer than the
    fixes drawn."""
    one_pass, counts = counted_run
    assert counts["samples"] == 0
    assert counts["points"] < counts["generated"] / 4, counts
