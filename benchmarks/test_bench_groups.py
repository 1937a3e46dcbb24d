"""A7 — group-visit deflation removes artificial aggregate inflation.

Section 4.1: "an RSP must explicitly account for [group visits] to ensure
that the collective recommendation power of groups does not artificially
inflate the aggregate activity associated with an entity."  The bench
compares raw vs deflated interaction counts against the ground-truth number
of physical outings.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

import numpy as np

from repro.core.aggregation import deflate_groups
from repro.privacy.anonymity import batching_network
from repro.privacy.history_store import HistoryStore
from repro.privacy.identifiers import DeviceIdentity
from repro.privacy.uploads import UploadScheduler, hardened_config
from repro.sensing.policy import duty_cycled_policy
from repro.sensing.resolution import EntityResolver
from repro.sensing.sensors import generate_trace
from repro.util.clock import DAY
from repro.world.entities import EntityKind
from repro.world.events import VisitEvent


def test_bench_group_deflation(benchmark, simulated_world):
    town, result, horizon_days = simulated_world
    horizon = horizon_days * DAY

    # Ground truth: physical outings per restaurant (a group outing is ONE).
    outings: dict[str, set] = {}
    raw_truth: dict[str, int] = {}
    for event in result.events:
        if not isinstance(event, VisitEvent) or event.start_time >= horizon:
            continue
        entity = town.entity(event.entity_id)
        if entity.kind is not EntityKind.RESTAURANT:
            continue
        key = (event.group_id or f"solo-{event.user_id}", event.start_time)
        outings.setdefault(event.entity_id, set()).add(key)
        raw_truth[event.entity_id] = raw_truth.get(event.entity_id, 0) + 1

    # The RSP's view: anonymous histories.
    resolver = EntityResolver(town.entities)
    network = batching_network(seed=BENCH_SEED)
    store = HistoryStore()
    for index, user in enumerate(town.users):
        trace = generate_trace(
            user.user_id, town, result, horizon, duty_cycled_policy(), seed=BENCH_SEED
        )
        UploadScheduler(
            DeviceIdentity.create(user.user_id, seed=index), hardened_config(), seed=index
        ).submit_all(resolver.resolve(trace), network)
    for delivery in network.deliveries_until(horizon + 3 * DAY):
        store.append(delivery.payload, arrival_time=delivery.arrival_time)

    group_heavy = [
        entity_id
        for entity_id, truth_raw in raw_truth.items()
        if truth_raw >= 10 and truth_raw > len(outings[entity_id]) * 1.2
    ]

    def deflate_all():
        results = {}
        for entity_id in group_heavy:
            histories = store.histories_for_entity(entity_id)
            effective, raw = deflate_groups(histories)
            results[entity_id] = (effective, raw)
        return results

    deflated = benchmark.pedantic(deflate_all, rounds=1, iterations=1)

    rows = []
    raw_errors, deflated_errors = [], []
    for entity_id in sorted(group_heavy)[:8]:
        effective, raw = deflated[entity_id]
        truth = len(outings[entity_id])
        rows.append([entity_id, raw_truth[entity_id], truth, raw, f"{effective:.0f}"])
        if truth > 0:
            raw_errors.append(abs(raw - truth) / truth)
            deflated_errors.append(abs(effective - truth) / truth)
    emit(comparison_table(
        "A7: group deflation vs ground-truth outings (group-heavy restaurants)",
        ["entity", "true raw visits", "true outings", "stored raw", "deflated"],
        rows,
    ))
    emit(comparison_table(
        "A7: relative error vs true outings",
        ["estimator", "mean relative error"],
        [
            ["raw counts", f"{np.mean(raw_errors):.2f}"],
            ["deflated counts", f"{np.mean(deflated_errors):.2f}"],
        ],
    ))

    assert group_heavy, "the simulated town should contain group-visited restaurants"
    # Deflation strictly reduces counts and tracks true outings better.
    for entity_id in group_heavy:
        effective, raw = deflated[entity_id]
        assert effective <= raw
    assert np.mean(deflated_errors) < np.mean(raw_errors)
