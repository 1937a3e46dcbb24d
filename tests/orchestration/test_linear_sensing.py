"""Client sensing in ``run_epochs`` costs what is new in each epoch.

Every epoch observes each device at a longer horizon.  Regenerating and
refolding the whole stream each time makes the work grow with
epochs x stream; windowed traces keep it near one pass over the stream.
"""

from repro.core.classifier import OpinionClassifier, synthetic_training_pairs
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig
from repro.sensing import location, sensors
from repro.sensing.sensors import generate_trace
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town


def test_samples_generated_and_folded_stay_linear(monkeypatch):
    town = build_town(TownConfig(n_users=40), seed=7)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=30), seed=7
    ).run()
    config = PipelineConfig(horizon_days=30.0, seed=7)
    classifier = OpinionClassifier().fit(*synthetic_training_pairs(60, seed=0))
    one_pass = sum(
        len(generate_trace(user.user_id, town, result, 30 * DAY, seed=7).location_samples)
        for user in town.users
    )

    generated = folded = 0
    make_sample = sensors.LocationSample
    fold_extend = location.StayPointFold.extend

    def counting_sample(*args, **kwargs):
        nonlocal generated
        generated += 1
        return make_sample(*args, **kwargs)

    def counting_extend(self, samples):
        nonlocal folded
        samples = list(samples)
        folded += len(samples)
        return fold_extend(self, samples)

    monkeypatch.setattr(sensors, "LocationSample", counting_sample)
    monkeypatch.setattr(location.StayPointFold, "extend", counting_extend)
    run_epochs(town, result, config, n_epochs=8, classifier=classifier)

    assert one_pass > 0
    assert generated <= 1.5 * one_pass, (generated, one_pass)
    assert folded <= 1.5 * one_pass, (folded, one_pass)
