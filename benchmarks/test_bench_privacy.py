"""A3 — privacy ablation: each Section 4.2 mechanism vs its attack.

Four configurations cross (channel reuse x upload timing); the linkage and
timing attacks run against each.  The paper's design (fresh per-upload
channels + asynchronous batched uploads) should drive both attacks to
chance; the naive design should fall to both.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

from repro.privacy.anonymity import batching_network, immediate_network
from repro.privacy.attacks import linkage_attack, timing_attack
from repro.privacy.identifiers import DeviceIdentity
from repro.privacy.uploads import UploadConfig, UploadScheduler
from repro.sensing.policy import duty_cycled_policy
from repro.sensing.resolution import EntityResolver
from repro.sensing.sensors import generate_trace
from repro.util.clock import DAY, HOUR


def run_attacks(town, result, horizon, upload_config, batching, seed=BENCH_SEED, max_users=50):
    resolver = EntityResolver(town.entities)
    network = batching_network(6 * HOUR, seed=seed) if batching else immediate_network(seed=seed)
    true_owner = {}
    activity = {}
    for index, user in enumerate(town.users[:max_users]):
        trace = generate_trace(
            user.user_id, town, result, horizon, duty_cycled_policy(), seed=seed
        )
        interactions = resolver.resolve(trace)
        identity = DeviceIdentity.create(user.user_id, seed=index)
        scheduler = UploadScheduler(identity, upload_config, seed=index)
        scheduler.submit_all(interactions, network)
        for interaction in interactions:
            true_owner[identity.history_id(interaction.entity_id)] = user.user_id
        activity[user.user_id] = [i.time + i.duration for i in interactions]
    deliveries = network.deliveries_until(horizon + 3 * DAY)
    return (
        linkage_attack(deliveries, true_owner),
        timing_attack(deliveries, activity, true_owner),
    )


def test_bench_privacy_attacks(benchmark, simulated_world):
    town, result, horizon_days = simulated_world
    horizon = horizon_days * DAY

    configurations = [
        ("naive (stable channel, immediate)",
         UploadConfig(max_upload_delay=0.0, time_granularity=1.0, reuse_channel_tag=True),
         False),
        ("channels only (fresh channel, immediate)",
         UploadConfig(max_upload_delay=0.0, time_granularity=1.0, reuse_channel_tag=False),
         False),
        ("async only (stable channel, batched+delayed)",
         UploadConfig(max_upload_delay=24 * HOUR, time_granularity=DAY, reuse_channel_tag=True),
         True),
        ("paper design (fresh channels, batched+delayed)",
         UploadConfig(max_upload_delay=24 * HOUR, time_granularity=DAY, reuse_channel_tag=False),
         True),
    ]

    def run_all():
        return [
            (name, *run_attacks(town, result, horizon, config, batching))
            for name, config, batching in configurations
        ]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, linkage, timing in results:
        rows.append(
            [
                name,
                f"{linkage.recall:.2f}",
                f"{timing.accuracy:.2f}",
                f"{timing.random_baseline:.3f}",
            ]
        )
    emit(comparison_table(
        "A3: de-anonymization attacks vs upload design",
        ["configuration", "linkage recall", "timing attribution", "chance"],
        rows,
    ))

    by_name = {name: (linkage, timing) for name, linkage, timing in results}
    naive_link, naive_time = by_name["naive (stable channel, immediate)"]
    paper_link, paper_time = by_name["paper design (fresh channels, batched+delayed)"]
    channels_link, _ = by_name["channels only (fresh channel, immediate)"]
    _, async_time = by_name["async only (stable channel, batched+delayed)"]

    # The naive design falls to both attacks.
    assert naive_link.recall > 0.9
    assert naive_time.accuracy > 10 * naive_time.random_baseline
    # Each mechanism kills its attack...
    assert channels_link.recall == 0.0
    assert async_time.accuracy < 3 * async_time.random_baseline + 0.05
    # ...and the paper's full design kills both.
    assert paper_link.recall == 0.0
    assert paper_time.accuracy < 3 * paper_time.random_baseline + 0.05
