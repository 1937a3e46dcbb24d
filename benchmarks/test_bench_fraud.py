"""A4 — fraud ablation: the attacker zoo vs the typical-user detector.

Section 4.3's claims, quantified: the cheap attacks the paper describes
(back-to-back calls, daily employee presence) are caught by profiles merged
from anonymous histories; evading detection (mimicry) costs months of
realistic behaviour; honest users are rarely flagged.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

from repro.fraud.attackers import (
    CallSpamAttacker,
    EmployeeAttacker,
    MimicAttacker,
    SybilAttacker,
)
from repro.fraud.detector import FraudDetector
from repro.fraud.profiles import build_profiles
from repro.privacy.anonymity import batching_network
from repro.privacy.history_store import HistoryStore
from repro.privacy.identifiers import DeviceIdentity
from repro.privacy.uploads import UploadScheduler, hardened_config
from repro.sensing.policy import duty_cycled_policy
from repro.sensing.resolution import EntityResolver
from repro.sensing.sensors import generate_trace
from repro.util.clock import DAY
from repro.world.entities import EntityKind


def by_preference(first):
    """Every kind, ``first`` then the kinds sharing its interaction style."""
    return sorted(
        EntityKind, key=lambda kind: (kind is not first, kind.style is not first.style)
    )


def profiled(town, profiles, first):
    """An entity of the most preferred kind that has a typical profile.

    A town whose honest users left no history at some kind has no
    profile for it: an attack on it would go unjudged, not undetected.
    """
    kind = next(kind for kind in by_preference(first) if kind.label in profiles)
    return kind, town.entities_of_kind(kind)[0].entity_id


def build_honest_store(town, result, horizon, seed=BENCH_SEED):
    resolver = EntityResolver(town.entities)
    network = batching_network(seed=seed)
    store = HistoryStore()
    for index, user in enumerate(town.users):
        trace = generate_trace(
            user.user_id, town, result, horizon, duty_cycled_policy(), seed=seed
        )
        interactions = resolver.resolve(trace)
        identity = DeviceIdentity.create(user.user_id, seed=index)
        UploadScheduler(identity, hardened_config(), seed=index).submit_all(
            interactions, network
        )
    for delivery in network.deliveries_until(horizon + 3 * DAY):
        store.append(delivery.payload, arrival_time=delivery.arrival_time)
    return store


def judge_uploads(detector, uploads):
    store = HistoryStore()
    for upload in uploads:
        store.append(upload, arrival_time=upload.event_time)
    [history] = store.all_histories()
    return detector.judge(history)


def test_bench_fraud_detection_matrix(benchmark, simulated_world):
    town, result, horizon_days = simulated_world
    horizon = horizon_days * DAY
    store = build_honest_store(town, result, horizon)
    kinds = {entity.entity_id: entity.kind.label for entity in town.entities}
    restaurant = town.entities_of_kind(EntityKind.RESTAURANT)[0].entity_id

    def run_matrix():
        profiles = build_profiles(store, kinds)
        detector = FraudDetector(profiles, kinds)
        _, honest_rejected = detector.filter_store(store)

        # The paper's call-spam example is a plumber.
        _, spam_target = profiled(town, profiles, EntityKind.PLUMBER)
        spam = CallSpamAttacker().generate(
            DeviceIdentity.create("spam", seed=1), spam_target, 10 * DAY
        )
        employee = EmployeeAttacker(n_days=60).generate(
            DeviceIdentity.create("emp", seed=2), restaurant, 5 * DAY
        )
        # The paper's own mimicry example is a dentist: "a user will
        # need to be at the dentist's office for reasonable periods of
        # time over several years".
        mimic_kind, mimic_target = profiled(town, profiles, EntityKind.DENTIST)
        mimic = MimicAttacker().generate(
            DeviceIdentity.create("mimic", seed=3), mimic_target,
            0.0, profiles[mimic_kind.label],
        )
        sybils = SybilAttacker(n_devices=10).generate_all(restaurant, 0.0, seed=4)

        verdicts = {
            "call-spam": judge_uploads(detector, spam.uploads),
            "employee": judge_uploads(detector, employee.uploads),
            "mimic": judge_uploads(detector, mimic.uploads),
        }
        sybil_judged = [judge_uploads(detector, s.uploads) for s in sybils]
        return detector, honest_rejected, verdicts, (spam, employee, mimic), sybil_judged

    detector, honest_rejected, verdicts, attacks, sybil_judged = benchmark.pedantic(
        run_matrix, rounds=1, iterations=1
    )
    spam, employee, mimic = attacks

    rows = [
        ["call-spam (paper's example)", "detected",
         "yes" if verdicts["call-spam"].suspicious else "NO",
         f"{spam.cost.wall_clock_days:.1f}", f"{spam.cost.active_effort/60:.0f} min"],
        ["employee (paper's example)", "detected",
         "yes" if verdicts["employee"].suspicious else "NO",
         f"{employee.cost.wall_clock_days:.0f}", "on-site job"],
        ["mimic (typical-profile forgery)", "evades",
         "no" if not verdicts["mimic"].suspicious else "CAUGHT",
         f"{mimic.cost.wall_clock_days:.0f}", f"{mimic.cost.active_effort/3600:.1f} h"],
    ]
    emit(comparison_table(
        "A4: attacker zoo vs typical-user detector",
        ["attack", "expected", "detected?", "wall-clock days", "active effort"],
        rows,
    ))
    honest_fp = len(honest_rejected) / max(store.n_histories, 1)
    emit(comparison_table(
        "A4: collateral damage",
        ["metric", "value"],
        [
            ["honest histories", store.n_histories],
            ["honest false-positive rate", f"{honest_fp:.3f}"],
            ["sybil histories judged", sum(1 for v in sybil_judged if v.judged)],
        ],
    ))

    # The paper's named attacks are caught.
    assert verdicts["call-spam"].suspicious
    assert verdicts["employee"].suspicious
    # The mimic evades — but pays the behaving-like-a-patient cost:
    # realistic appointment dwell spread over months, vs minutes of
    # phone spam.
    assert not verdicts["mimic"].suspicious
    assert mimic.cost.wall_clock_days > 10 * spam.cost.wall_clock_days
    assert mimic.cost.active_effort > 10 * spam.cost.active_effort
    # Honest users are rarely flagged.
    assert honest_fp < 0.05
    # Sybil micro-histories are unjudgeable by design (limited influence).
    assert all(not v.judged for v in sybil_judged)
