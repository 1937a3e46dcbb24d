"""Command-line interface: ``python -m repro <command>``.

One subcommand per major experiment, all running the same library code the
benchmarks exercise:

* ``measure``  — regenerate the Section 2 measurement study (Table 1, Figure 1)
* ``pipeline`` — run the full Figure 2 architecture and report coverage/accuracy
* ``search``   — run the pipeline, then answer one query like the RSP would
* ``query``    — run the pipeline, then query the indexed serving layer (cached)
* ``epochs``   — operate the service over periodic client syncs
* ``figure3``  — the three-dentist comparative-visualization scenario
* ``audit``    — de-anonymization attacks against naive vs hardened clients
* ``redteam``  — the fraud attacker zoo vs the typical-user detector
* ``recover``  — rebuild a crashed service from its durable WAL + snapshots
* ``lint``     — the AST invariant analyzer (privacy, determinism, layering)
* ``analyze``  — the whole-program analyzer (call graph, interprocedural taint)
* ``telemetry`` — run the service and render its observability dashboard
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.measurement import (
        all_service_specs,
        crawl_service,
        figure1a,
        figure1b,
        figure1c,
        google_play_spec,
        measure_engagement,
        table1,
        youtube_spec,
    )

    crawls = [crawl_service(spec, seed=args.seed) for spec in all_service_specs()]
    print(table1(crawls).render())
    print("\nFigure 1(a): reviews per entity")
    print(figure1a(crawls).render())
    print("\nFigure 1(b): entities with >= 50 reviews per query")
    print(figure1b(crawls).render())
    engagement = [
        measure_engagement(google_play_spec(), seed=args.seed),
        measure_engagement(youtube_spec(), seed=args.seed),
    ]
    print("\nFigure 1(c): explicit vs implicit interaction")
    print(figure1c(engagement).render())
    return 0


def _build_world(args: argparse.Namespace):
    from repro.world.behavior import BehaviorConfig, BehaviorSimulator
    from repro.world.population import TownConfig, build_town

    town = build_town(TownConfig(n_users=args.users), seed=args.seed)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=args.days), seed=args.seed
    ).run()
    return town, result


def _run_pipeline(args: argparse.Namespace):
    from repro.orchestration.pipeline import PipelineConfig, run_full_pipeline

    town, result = _build_world(args)
    outcome = run_full_pipeline(
        town, result, PipelineConfig(horizon_days=float(args.days), seed=args.seed)
    )
    return town, result, outcome


def _cmd_pipeline(args: argparse.Namespace) -> int:
    town, result, outcome = _run_pipeline(args)
    server = outcome.server
    print(f"users: {len(town.users)}   simulated days: {args.days}")
    print(f"ground-truth interactions: {len(result.events)}")
    print(f"explicit reviews:          {server.n_explicit_reviews}")
    print(f"inferred opinions:         {server.n_opinions}")
    print(f"anonymous histories:       {server.n_histories}")
    print(f"opinion gain:              {outcome.coverage_gain():.1f}x")
    print(f"inference MAE:             {outcome.mean_absolute_error:.2f} stars")
    print(f"abstention rate:           {outcome.abstention_rate:.2f}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.core.discovery import Query
    from repro.world.geography import Point

    town, _, outcome = _run_pipeline(args)
    near = (
        Point(args.x, args.y)
        if args.x is not None and args.y is not None
        else town.grid.zones[len(town.grid.zones) // 2].center
    )
    response = outcome.server.search(
        Query(category=args.category, near=near, radius_km=args.radius)
    )
    print(response.render())
    if args.visualize and response.visualization is not None:
        print()
        print(response.visualization.render())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.engine import ServeQuery
    from repro.world.geography import Point

    town, _, outcome = _run_pipeline(args)
    server = outcome.server
    server.attach_serving(grid=town.grid)
    near = (
        Point(args.x, args.y)
        if args.x is not None and args.y is not None
        else town.grid.zones[len(town.grid.zones) // 2].center
    )
    query = ServeQuery(
        category=args.category,
        near=near,
        radius_km=args.radius,
        attribute=args.attribute,
        limit=args.limit,
    )
    for _ in range(args.repeat):
        response = server.query(query)
    print(response.render())
    stats = server.serving.stats
    print(
        f"\ncache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate():.0%} hit rate), "
        f"{stats.invalidations} invalidations"
    )
    return 0


def _build_fault_plan(args: argparse.Namespace, horizon: float, epoch_length: float):
    """Translate the chaos flags into a FaultPlan (None when all are off)."""
    from repro.faults import (
        ClientCrash,
        DropFault,
        FaultPlan,
        IssuerOutage,
        PrimaryCrash,
        ReplicaOutage,
        ServerOutage,
        Window,
    )

    drops = ()
    if args.drop > 0:
        drops = (DropFault(Window(0.0, horizon + 30 * 24 * 3600.0), args.drop),)
    server_outages = ()
    if args.server_outage_epoch is not None:
        e = args.server_outage_epoch
        # Cover the epoch's ingestion point too (epoch end + 2 days).
        server_outages = (
            ServerOutage(Window((e - 1) * epoch_length, e * epoch_length + 3 * 24 * 3600.0)),
        )
    issuer_outages = ()
    if args.issuer_outage_epoch is not None:
        e = args.issuer_outage_epoch
        issuer_outages = (IssuerOutage(Window((e - 1) * epoch_length, e * epoch_length)),)
    crashes = ()
    if args.crash_epoch is not None:
        crashes = (ClientCrash(time=(args.crash_epoch - 0.5) * epoch_length),)
    primary_crashes = ()
    primary_epoch = getattr(args, "primary_crash_epoch", None)
    if primary_epoch is not None:
        primary_crashes = (
            PrimaryCrash(time=(primary_epoch - 0.5) * epoch_length, torn_bytes=7),
        )
    replica_outages = ()
    replica_epoch = getattr(args, "replica_outage_epoch", None)
    if replica_epoch is not None:
        e = replica_epoch
        # Cover the epoch's ingestion point (epoch end + 2 days), where the
        # driver ships the log, so the shipment is actually deferred.
        replica_outages = (
            ReplicaOutage(Window((e - 1) * epoch_length, e * epoch_length + 3 * 24 * 3600.0)),
        )
    plan = FaultPlan(
        seed=args.fault_seed,
        drops=drops,
        server_outages=server_outages,
        issuer_outages=issuer_outages,
        crashes=crashes,
        primary_crashes=primary_crashes,
        replica_outages=replica_outages,
    )
    return None if plan.is_empty else plan


def _cmd_epochs(args: argparse.Namespace) -> int:
    from repro.orchestration.epochs import run_epochs
    from repro.orchestration.pipeline import PipelineConfig
    from repro.privacy.uploads import RetransmitPolicy

    town, result = _build_world(args)
    horizon = args.days * 24 * 3600.0
    plan = _build_fault_plan(args, horizon, horizon / args.epochs)
    retransmit = RetransmitPolicy(max_attempts=args.retransmit) if args.retransmit > 1 else None
    reshard_schedule = None
    if args.reshard:
        from repro.reshard import parse_schedule

        reshard_schedule = parse_schedule(args.reshard)
    autoscale = None
    if args.autoscale_split is not None:
        from repro.reshard import AutoscalePolicy

        autoscale = AutoscalePolicy(
            split_above=args.autoscale_split, merge_below=args.autoscale_merge
        )
    outcome = run_epochs(
        town,
        result,
        PipelineConfig(horizon_days=float(args.days), seed=args.seed, retransmit=retransmit),
        n_epochs=args.epochs,
        fault_plan=plan,
        n_shards=args.shards,
        workers=args.workers,
        durable_dir=args.durable_dir,
        replicate=args.replicate,
        snapshot_every=args.snapshot_every,
        queue_depth=args.queue_depth,
        reshard_schedule=reshard_schedule,
        autoscale=autoscale,
    )
    if outcome.reshard_ops:
        applied = ", ".join(
            f"epoch {epoch}: {op.describe()}" for epoch, op in outcome.reshard_ops
        )
        print(f"resharding: {applied}")
    if args.queue_depth is not None:
        print(f"ingest: bounded queue depth {args.queue_depth}")
    if plan is not None:
        print(f"fault injection: {plan.describe()}")
    if args.durable_dir is not None:
        mode = "primary/replica" if args.replicate else "WAL + snapshots"
        print(f"durability: {mode} under {args.durable_dir}")
    if args.shards > 1 or args.workers > 0:
        print(
            f"deployment: {args.shards} shards, "
            f"{args.workers} maintenance workers (0 = serial)"
        )
    print(f"{'epoch':>5} {'new records':>12} {'total':>7} "
          f"{'histories':>10} {'opinions':>9} {'rejected':>9} "
          f"{'dropped':>8} {'bounced':>8} {'dup-sup':>8} {'resent':>7}")
    for report in outcome.reports:
        rejected_histories = (
            f"{report.maintenance.n_rejected_histories:>9}"
            if report.maintenance is not None
            else f"{'deferred':>9}"
        )
        print(
            f"{report.epoch:>5} {report.new_records:>12} {report.total_records:>7} "
            f"{report.total_histories:>10} {report.n_opinions:>9} "
            f"{rejected_histories} "
            f"{report.dropped_messages:>8} {report.rejected_envelopes:>8} "
            f"{report.duplicates_suppressed:>8} {report.retransmissions:>7}"
        )
    pair = outcome.replication
    if pair is not None:
        status = "PROMOTED (replica is now serving)" if pair.promoted else "standing by"
        print(
            f"replica: {status} — lag {pair.lag} record(s), "
            f"peak {pair.max_lag}, {pair.deferred_batches} shipment(s) deferred"
        )
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.orchestration.epochs import run_epochs
    from repro.orchestration.pipeline import PipelineConfig
    from repro.telemetry import AGGREGATE
    from repro.telemetry.dashboard import render_dashboard

    town, result = _build_world(args)
    horizon = args.days * 24 * 3600.0
    plan = _build_fault_plan(args, horizon, horizon / args.epochs)
    outcome = run_epochs(
        town,
        result,
        PipelineConfig(horizon_days=float(args.days), seed=args.seed),
        n_epochs=args.epochs,
        fault_plan=plan,
        n_shards=args.shards,
        workers=args.workers,
    )
    telemetry = outcome.telemetry
    scope = AGGREGATE if args.aggregate_only else None
    if args.json:
        print(telemetry.export_json(scope=scope, indent=2))
        return 0
    if plan is not None:
        print(f"fault injection: {plan.describe()}\n")
    print(
        f"deployment: {args.shards} shard(s), {args.workers} worker(s) — "
        f"aggregate digest {telemetry.digest(scope=AGGREGATE)[:16]}…\n"
    )
    print(render_dashboard(telemetry, scope=scope))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from collections import defaultdict

    import numpy as np

    from repro.util.stats import pearson
    from repro.world.scenarios import (
        DENTIST_A,
        DENTIST_B,
        DENTIST_C,
        Figure3Config,
        run_figure3,
    )

    _, result = run_figure3(Figure3Config(seed=args.seed))
    per_user: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    distances: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for event in result.events:
        per_user[event.entity_id][event.user_id] += 1
        distances[event.entity_id][event.user_id].append(event.distance_km)
    for dentist in (DENTIST_A, DENTIST_B, DENTIST_C):
        counts = [c for c in per_user[dentist].values()]
        repeat = [c for c in counts if c >= 2]
        avg_distance = [
            float(np.mean(distances[dentist][u]))
            for u, c in per_user[dentist].items()
            if c >= 2
        ]
        correlation = pearson(repeat, avg_distance)
        print(
            f"{dentist}: {len(counts):3d} patients, "
            f"repeat fraction {np.mean([c > 1 for c in counts]):.2f}, "
            f"distance-visits correlation {correlation:+.2f}"
        )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.privacy.anonymity import batching_network, immediate_network
    from repro.privacy.attacks import linkage_attack, timing_attack
    from repro.privacy.identifiers import DeviceIdentity
    from repro.privacy.uploads import UploadScheduler, hardened_config, naive_config
    from repro.sensing.policy import duty_cycled_policy
    from repro.sensing.resolution import EntityResolver
    from repro.sensing.sensors import generate_trace
    from repro.util.clock import DAY

    town, result = _build_world(args)
    horizon = args.days * DAY
    resolver = EntityResolver(town.entities)

    for label, config, network in (
        ("naive", naive_config(), immediate_network(seed=args.seed)),
        ("hardened", hardened_config(), batching_network(seed=args.seed)),
    ):
        true_owner, activity = {}, {}
        for index, user in enumerate(town.users):
            trace = generate_trace(
                user.user_id, town, result, horizon, duty_cycled_policy(), seed=args.seed
            )
            interactions = resolver.resolve(trace)
            identity = DeviceIdentity.create(user.user_id, seed=index)
            UploadScheduler(identity, config, seed=index).submit_all(interactions, network)
            for interaction in interactions:
                true_owner[identity.history_id(interaction.entity_id)] = user.user_id
            activity[user.user_id] = [i.time + i.duration for i in interactions]
        deliveries = network.deliveries_until(horizon + 3 * DAY)
        link = linkage_attack(deliveries, true_owner)
        timing = timing_attack(deliveries, activity, true_owner)
        print(
            f"{label:9s} linkage recall {link.recall:.2f}   "
            f"timing attribution {timing.accuracy:.2f} "
            f"(chance {timing.random_baseline:.3f})"
        )
    return 0


def _cmd_redteam(args: argparse.Namespace) -> int:
    from repro.fraud.attackers import CallSpamAttacker, EmployeeAttacker, MimicAttacker
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

    town, result = _build_world(args)
    horizon = args.days * DAY
    resolver = EntityResolver(town.entities)
    network = batching_network(seed=args.seed)
    store = HistoryStore()
    for index, user in enumerate(town.users):
        trace = generate_trace(
            user.user_id, town, result, horizon, duty_cycled_policy(), seed=args.seed
        )
        UploadScheduler(
            DeviceIdentity.create(user.user_id, seed=index), hardened_config(), seed=index
        ).submit_all(resolver.resolve(trace), network)
    for delivery in network.deliveries_until(horizon + 3 * DAY):
        store.append(delivery.payload, arrival_time=delivery.arrival_time)

    kinds = {entity.entity_id: entity.kind.label for entity in town.entities}
    profiles = build_profiles(store, kinds)
    detector = FraudDetector(profiles, kinds)

    def judge(uploads):
        attack_store = HistoryStore()
        for upload in uploads:
            attack_store.append(upload, arrival_time=upload.event_time)
        [history] = attack_store.all_histories()
        return detector.judge(history)

    plumber = town.entities_of_kind(EntityKind.PLUMBER)[0].entity_id
    restaurant = town.entities_of_kind(EntityKind.RESTAURANT)[0].entity_id
    dentist = town.entities_of_kind(EntityKind.DENTIST)[0].entity_id

    spam = CallSpamAttacker().generate(DeviceIdentity.create("s", seed=1), plumber, 10 * DAY)
    employee = EmployeeAttacker().generate(DeviceIdentity.create("e", seed=2), restaurant, 0.0)
    print(f"call-spam: {'DETECTED' if judge(spam.uploads).suspicious else 'evaded'}")
    print(f"employee:  {'DETECTED' if judge(employee.uploads).suspicious else 'evaded'}")
    if "dentist" in profiles:
        mimic = MimicAttacker().generate(
            DeviceIdentity.create("m", seed=3), dentist, 0.0, profiles["dentist"]
        )
        verdict = judge(mimic.uploads)
        print(
            f"mimic:     {'detected' if verdict.suspicious else 'EVADED'} "
            f"(cost: {mimic.cost.wall_clock_days:.0f} days of realistic behaviour)"
        )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import hashlib
    from pathlib import Path

    from repro.durability.recovery import recover_server
    from repro.orchestration.pipeline import PipelineConfig
    from repro.service.server import RSPServer
    from repro.util.clock import DAY
    from repro.world.population import TownConfig, build_town

    town = build_town(TownConfig(n_users=args.users), seed=args.seed)
    config = PipelineConfig(horizon_days=float(args.days), seed=args.seed)
    server = RSPServer(
        catalog=town.entities,
        quota_per_day=config.quota_per_day,
        key_seed=config.seed,
        key_bits=config.key_bits,
        n_shards=args.shards,
    )
    # ``repro epochs --durable-dir D`` journals under D/primary (and a
    # promoted replica under D/promoted); accept either D or the lane
    # directory itself.
    base = Path(args.durable_dir)
    directory = base / "primary" if (base / "primary").is_dir() else base
    report = recover_server(server, directory)
    print(f"recovered from: {directory}")
    print(f"snapshot seq:   {report.snapshot_seq}")
    print(f"replayed:       {report.n_replayed} WAL record(s)")
    print(f"torn tail:      {'yes (discarded)' if report.torn_tail else 'no'}")
    print(f"next seq:       {report.next_seq}")
    print(
        f"state: {server.n_records} records, {server.n_histories} histories, "
        f"{server.accepted_envelopes} accepted envelopes"
    )
    maintenance = server.run_maintenance(now=args.days * DAY + 2 * DAY)
    digest = hashlib.sha256(repr(maintenance).encode("utf-8")).hexdigest()
    print(
        f"post-recovery maintenance: {server.n_opinions} opinions, "
        f"report digest {digest[:16]}…"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_analyze

    return run_analyze(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Towards Comprehensive Repositories of Opinions' (HotNets-XV 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p):
        p.add_argument("--users", type=int, default=80, help="population size")
        p.add_argument("--days", type=float, default=120.0, help="simulated days")
        p.add_argument("--seed", type=int, default=42, help="simulation seed")

    measure = sub.add_parser("measure", help="regenerate the Section 2 measurement study")
    measure.add_argument("--seed", type=int, default=2016)
    measure.set_defaults(func=_cmd_measure)

    pipeline = sub.add_parser("pipeline", help="run the full Figure 2 architecture")
    add_world_args(pipeline)
    pipeline.set_defaults(func=_cmd_pipeline)

    search = sub.add_parser("search", help="run the pipeline, then answer one query")
    add_world_args(search)
    search.add_argument("--category", default="thai", help="category to search")
    search.add_argument("--x", type=float, default=None, help="query x (km)")
    search.add_argument("--y", type=float, default=None, help="query y (km)")
    search.add_argument("--radius", type=float, default=10.0, help="radius (km)")
    search.add_argument("--visualize", action="store_true", help="print Figure 3 panels")
    search.set_defaults(func=_cmd_search)

    query = sub.add_parser(
        "query", help="run the pipeline, then query the indexed serving layer"
    )
    add_world_args(query)
    query.add_argument("--category", default="thai")
    query.add_argument("--radius", type=float, default=8.0)
    query.add_argument("--x", type=float, default=None)
    query.add_argument("--y", type=float, default=None)
    query.add_argument(
        "--attribute", default=None, help="attribute filter, e.g. price:2"
    )
    query.add_argument("--limit", type=int, default=10)
    query.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="ask the same query N times (N>1 exercises the result cache)",
    )
    query.set_defaults(func=_cmd_query)

    epochs = sub.add_parser("epochs", help="operate the service over periodic syncs")
    add_world_args(epochs)
    epochs.add_argument("--epochs", type=int, default=6, help="number of sync epochs")
    epochs.add_argument(
        "--drop", type=float, default=0.0, help="injected network drop rate [0, 1]"
    )
    epochs.add_argument(
        "--server-outage-epoch", type=int, default=None,
        help="epoch (1-based) during which the upload endpoint is down",
    )
    epochs.add_argument(
        "--issuer-outage-epoch", type=int, default=None,
        help="epoch (1-based) during which the token issuer is down",
    )
    epochs.add_argument(
        "--crash-epoch", type=int, default=None,
        help="epoch (1-based) mid-way through which every client crashes and restores",
    )
    epochs.add_argument(
        "--retransmit", type=int, default=1,
        help="max send attempts per record (1 = fire-and-forget once)",
    )
    epochs.add_argument("--fault-seed", type=int, default=0, help="fault-plan seed")
    epochs.add_argument(
        "--shards", type=int, default=1,
        help="store partitions (default 1)",
    )
    epochs.add_argument(
        "--workers", type=int, default=0,
        help="maintenance worker processes (0 = serial in-process)",
    )
    epochs.add_argument(
        "--durable-dir", default=None,
        help="WAL + snapshot directory (enables durable journaling)",
    )
    epochs.add_argument(
        "--replicate", action="store_true",
        help="run a log-shipped warm standby (requires --durable-dir)",
    )
    epochs.add_argument(
        "--snapshot-every", type=int, default=1,
        help="take a snapshot every N epochs (with --durable-dir)",
    )
    epochs.add_argument(
        "--primary-crash-epoch", type=int, default=None,
        help="epoch (1-based) mid-way through which the primary RSP dies "
        "with a torn WAL tail (requires --replicate)",
    )
    epochs.add_argument(
        "--replica-outage-epoch", type=int, default=None,
        help="epoch (1-based) during which log shipping is down",
    )
    epochs.add_argument(
        "--queue-depth", type=int, default=None,
        help="bound intake behind a shedding queue of this capacity",
    )
    epochs.add_argument(
        "--reshard", action="append", default=None,
        metavar="EPOCH:split:SHARD|EPOCH:merge:A:B",
        help="apply a live topology change at the start of the given epoch "
        "(repeatable; requires a sharded deployment)",
    )
    epochs.add_argument(
        "--autoscale-split", type=int, default=None,
        help="split the hottest shard when its history count exceeds this "
        "(enables the telemetry-driven autoscaler)",
    )
    epochs.add_argument(
        "--autoscale-merge", type=int, default=0,
        help="merge the two coldest shards when their combined history "
        "count stays under this (with --autoscale-split)",
    )
    epochs.set_defaults(func=_cmd_epochs)

    telemetry = sub.add_parser(
        "telemetry", help="run the service, then render its telemetry dashboard"
    )
    add_world_args(telemetry)
    telemetry.add_argument("--epochs", type=int, default=6, help="number of sync epochs")
    telemetry.add_argument(
        "--drop", type=float, default=0.0, help="injected network drop rate [0, 1]"
    )
    telemetry.add_argument(
        "--server-outage-epoch", type=int, default=None,
        help="epoch (1-based) during which the upload endpoint is down",
    )
    telemetry.add_argument(
        "--issuer-outage-epoch", type=int, default=None,
        help="epoch (1-based) during which the token issuer is down",
    )
    telemetry.add_argument(
        "--crash-epoch", type=int, default=None,
        help="epoch (1-based) mid-way through which every client crashes and restores",
    )
    telemetry.add_argument("--fault-seed", type=int, default=0, help="fault-plan seed")
    telemetry.add_argument(
        "--shards", type=int, default=1,
        help="store partitions (default 1)",
    )
    telemetry.add_argument(
        "--workers", type=int, default=0,
        help="maintenance worker processes (0 = serial in-process)",
    )
    telemetry.add_argument(
        "--json", action="store_true", help="print the canonical JSON export instead"
    )
    telemetry.add_argument(
        "--aggregate-only", action="store_true",
        help="restrict to the deployment-invariant (aggregate) scope",
    )
    telemetry.set_defaults(func=_cmd_telemetry)

    figure3 = sub.add_parser("figure3", help="the three-dentist scenario")
    figure3.add_argument("--seed", type=int, default=42)
    figure3.set_defaults(func=_cmd_figure3)

    audit = sub.add_parser("audit", help="de-anonymization attacks, naive vs hardened")
    add_world_args(audit)
    audit.set_defaults(func=_cmd_audit)

    redteam = sub.add_parser("redteam", help="fraud attacker zoo vs the detector")
    add_world_args(redteam)
    redteam.set_defaults(func=_cmd_redteam)

    recover = sub.add_parser(
        "recover", help="rebuild a crashed service from its WAL + snapshots"
    )
    add_world_args(recover)
    recover.add_argument(
        "--durable-dir", required=True,
        help="the --durable-dir a previous `repro epochs` run journaled into",
    )
    recover.add_argument(
        "--shards", type=int, default=1,
        help="deployment shape of the crashed run (must match)",
    )
    recover.set_defaults(func=_cmd_recover)

    from repro.lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint", help="check privacy/determinism/layering invariants statically"
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    from repro.analysis.cli import add_analyze_arguments

    analyze = sub.add_parser(
        "analyze",
        help="whole-program analysis: interprocedural taint, pool/merge/"
        "determinism checkers",
    )
    add_analyze_arguments(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
