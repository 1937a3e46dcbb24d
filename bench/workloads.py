"""The four workloads: inputs, one fixed-work pass each, correctness checks.

Every input is generated from the seed before any timer starts.  A pass
builds a fresh deployment, runs the workload's fixed work inside timed
segments, and checks the outputs outside them.  The program is reached
only through its public entry points: ``run_epochs``,
``ShardedRSPServer``, ``ingest_all``, ``DurableJournal``,
``recover_server``, ``capture_state`` and ``server.query`` (plus the
world builders and load generators that make inputs).

Program modules are imported inside the functions on purpose: the worker
times the import itself as part of set-up, before any workload code
touches the program.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time
from array import array
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

from bench.speed import SpeedProbe

#: Every ``SAMPLE_EVERY``-th query of a pass is re-answered by the
#: uncached oracle and folded into the pass's response digest.
SAMPLE_EVERY = 97

#: Digests pinned for ``--seed 2016`` at full size.  A behaviour change
#: that moves one of these must re-pin it in a commit of its own.
PINS: dict[str, dict[str, str]] = {
    "deploy": {
        "reports": "321c67c4e3baf97f18e81ac7c8b23800aa7714f86eb170e4a9acdd4d523a4d9f",
        "serve": "a32d891772bd4165d676d48565784f12afc9c57f315e21daacc312ee69eba4c7",
    },
    "ingest": {"fates": "accepted=117564 rejected=1235 duplicates=1201 stale=46"},
    "reads-hot": {"reads": "323dba35ccc4925bd3f8810871b31431316a89f033e847f8c685b882d1af426f"},
    "reads-cold": {"reads": "dcd00821b3c292ebe1e99381d947407e5f08f91374ed380093e12625591ccd58"},
}
PIN_SEED = 2016

#: Refusal counters are not journaled — recovery restores what was
#: accepted — so they are left out when a recovered server is compared
#: with the live one.
VOLATILE_COUNTERS = ("rejected_envelopes", "duplicates_suppressed")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SetupWatch:
    """Times the named components of one set-up."""

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.probe = probe or SpeedProbe()
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, component: str):
        spent = self.probe.spent
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start - (self.probe.spent - spent)
            self.seconds[component] = self.seconds.get(component, 0.0) + elapsed

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


@dataclass
class Pass:
    """What one pass measured and checked."""

    workdir: Path
    #: Time spent sampling machine speed is left out of every timing.
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    tracer: object | None = None
    #: Seconds per timed segment ("run", "recover"), probe time left out.
    segments: dict[str, list[float]] = field(default_factory=dict)
    #: Closed-loop per-query latencies, seconds.
    latencies: array = field(default_factory=lambda: array("d"))
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    state_bytes: int = 0
    #: Per-layer values read off the deployment at the end of the pass.
    extras: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def timed(self, segment: str):
        context = self.tracer.segment(segment) if self.tracer is not None else nullcontext()
        spent = self.probe.spent
        start = time.perf_counter()
        with context:
            yield
        elapsed = time.perf_counter() - start - (self.probe.spent - spent)
        self.segments.setdefault(segment, []).append(elapsed)

    def set_request(self, request: int) -> None:
        if self.tracer is not None:
            self.tracer.request = request

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            self.failures.append(message)

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    @property
    def run_s(self) -> float:
        return sum(self.segments.get("run", ()))


# ------------------------------------------------------------- shared steps


def closed_loop(p: Pass, query: Callable, queries, offset: int = 0) -> list:
    """One client sends each query after the previous answer arrived.

    Returns the sampled ``(query, response)`` pairs for the oracle check.
    """
    clock = time.perf_counter
    probe = p.probe
    record = p.latencies.append
    responses = []
    keep = responses.append
    for request in queries:
        spent = probe.spent
        start = clock()
        response = query(request)
        record(clock() - start - (probe.spent - spent))
        keep(response)
    first = -offset % SAMPLE_EVERY
    return [(queries[i], responses[i]) for i in range(first, len(queries), SAMPLE_EVERY)]


def check_sampled(p: Pass, server, sampled, digest, quiescent: bool = True) -> None:
    """Sampled answers must equal a fresh uncached recompute.

    The cache is coherent with the summaries of the last maintenance
    cycle.  The Figure-3 panels, though, are drawn from live history
    objects that intake keeps appending to between cycles, so when
    intake has landed since the last cycle (``quiescent=False``) only
    the ranked results are compared.
    """
    oracle = server.serving.query_uncached

    def text(response) -> str:
        return (response if quiescent else replace(response, visualization=None)).render()

    wrong = 0
    for request, response in sampled:
        rendered = text(response)
        if rendered != text(oracle(request)):
            wrong += 1
        digest.update(rendered.encode())
        digest.update(b"\n")
    p.fail(wrong, f"{wrong} sampled answers differ from query_uncached")


def capture(server) -> tuple[bytes, bytes]:
    """Canonical bytes of the server's state: full, and without refusals."""
    from repro.durability.codec import canonical_json_bytes
    from repro.durability.snapshot import capture_state

    state = capture_state(server)
    full = canonical_json_bytes(state)
    for name in VOLATILE_COUNTERS:
        state["counters"].pop(name, None)
    return full, canonical_json_bytes(state)


def shard_skew(server) -> float:
    """Largest shard's history count over the mean (1.0 when unsharded)."""
    shards = getattr(server, "shards", None)
    if not shards:
        return 1.0
    sizes = [shard.store.n_histories for shard in shards]
    mean = sum(sizes) / len(sizes)
    return max(sizes) / mean if mean else 1.0


def reference_fates(batches, catalog_ids: set[str]) -> dict[str, int]:
    """Intake classification by a small independent reference model.

    For a tokenless server with no fault hook: a nonce already accepted
    is a duplicate; an unknown entity is rejected; an opinion whose
    ``seq`` does not beat its slot is accepted as stale; the rest are
    accepted.
    """
    seen: set[bytes] = set()
    slots: dict[str, int] = {}
    fates = {"accepted": 0, "rejected": 0, "duplicates": 0, "stale": 0}
    for batch in batches:
        for delivery in batch:
            envelope = delivery.payload
            record = envelope.record
            if envelope.nonce in seen:
                fates["duplicates"] += 1
                continue
            if record.entity_id not in catalog_ids:
                fates["rejected"] += 1
                continue
            seq = getattr(record, "seq", None)
            if seq is not None:
                current = slots.get(record.history_id)
                if current is None or seq > current:
                    slots[record.history_id] = seq
                else:
                    fates["stale"] += 1
            fates["accepted"] += 1
            seen.add(envelope.nonce)
    return fates


def render_fates(fates: dict[str, int]) -> str:
    return " ".join(f"{key}={fates[key]}" for key in ("accepted", "rejected", "duplicates", "stale"))


# ---------------------------------------------------------------- workloads


class Deploy:
    name = "deploy"
    modules = (
        "repro.orchestration.epochs",
        "repro.world.population",
        "repro.world.behavior",
        "repro.serve.loadgen",
        "repro.durability.snapshot",
    )
    sizes = {
        False: dict(users=240, days=30, epochs=8, serve_queries=200),
        True: dict(users=12, days=6, epochs=2, serve_queries=20),
    }

    def setup(self, seed: int, size: dict, watch: SetupWatch):
        from repro.orchestration.pipeline import PipelineConfig, train_classifier
        from repro.serve.loadgen import QueryWorkload, SyntheticQueries
        from repro.util.clock import DAY
        from repro.world.behavior import BehaviorConfig, BehaviorSimulator
        from repro.world.population import TownConfig, build_town

        with watch("world"):
            town = build_town(TownConfig(n_users=size["users"]), seed=seed)
            result = BehaviorSimulator(
                town.users,
                town.entities,
                BehaviorConfig(duration_days=size["days"]),
                seed=seed,
            ).run()
        config = PipelineConfig(horizon_days=float(size["days"]), seed=seed)
        with watch("classifier"):
            classifier = train_classifier(
                town, result, config.horizon_days * DAY, config.classifier, seed=seed
            )
        with watch("loadgen"):
            # The stream run_epochs serves from; every SAMPLE_EVERY-th
            # query is asked again after the run, outside the timer.
            served = SyntheticQueries(
                town.entities, QueryWorkload(seed=config.seed), grid=town.grid
            ).batch(size["epochs"] * size["serve_queries"])
        return SimpleNamespace(
            size=size,
            town=town,
            result=result,
            config=config,
            classifier=classifier,
            checks=served[::SAMPLE_EVERY],
        )

    def input_digest(self, inputs) -> str:
        return sha256(
            repr(
                (
                    [(e.entity_id, e.location) for e in inputs.town.entities],
                    inputs.result.reviews,
                    len(inputs.result.events),
                    inputs.checks,
                )
            )
        )

    def run_pass(self, inputs, p: Pass) -> None:
        from repro.orchestration import epochs

        size = inputs.size
        with p.timed("run"):
            outcome = epochs.run_epochs(
                inputs.town,
                inputs.result,
                inputs.config,
                n_epochs=size["epochs"],
                classifier=inputs.classifier,
                serve_queries=size["serve_queries"],
            )
        server = outcome.server
        p.digests["reports"] = sha256(outcome.reports_digest())
        p.digests["serve"] = outcome.serve_digest
        digest = hashlib.sha256()
        check_sampled(p, server, [(q, server.query(q)) for q in inputs.checks], digest)
        p.digests["reads"] = digest.hexdigest()

        refused = server.rejected_envelopes + server.dropped_by_outage
        p.attempted += (
            server.accepted_envelopes
            + refused
            + server.duplicates_suppressed
            + size["epochs"] * size["serve_queries"]
        )
        p.fail(refused, f"{refused} envelopes refused in a fault-free deployment")
        p.extras = {
            "privacy.deferred_envelopes": outcome.reports[-1].envelopes_deferred,
            "scale.shard_skew": shard_skew(server),
            "serve.invalidations": server.serving.stats.invalidations,
        }
        p.state_bytes = len(capture(server)[0])


class Ingest:
    name = "ingest"
    modules = (
        "repro.ingest",
        "repro.serve.loadgen",
        "repro.scale.server",
        "repro.telemetry",
        "repro.durability.journal",
        "repro.durability.recovery",
    )
    #: Simulated seconds per tick.
    tick = 60.0
    sizes = {
        False: dict(users=5_000, entities=400, per_tick=2_000, ticks=60, every=20, queries=100),
        True: dict(users=500, entities=60, per_tick=150, ticks=8, every=4, queries=10),
    }
    shards = 4

    def setup(self, seed: int, size: dict, watch: SetupWatch):
        from repro.ingest import SyntheticTraffic, WorkloadConfig
        from repro.serve.loadgen import QueryWorkload, SyntheticQueries

        with watch("world"):
            traffic = SyntheticTraffic(
                WorkloadConfig(
                    n_users=size["users"],
                    n_entities=size["entities"],
                    duplicate_fraction=0.01,
                    stale_fraction=0.01,
                    invalid_fraction=0.01,
                    seed=seed,
                )
            )
        with watch("loadgen"):
            batches = [traffic.batch(size["per_tick"], tick * self.tick) for tick in range(size["ticks"])]
            source = SyntheticQueries(traffic.catalog, QueryWorkload(seed=seed))
            queries = [source.batch(size["queries"]) for _ in range(size["ticks"])]
            expected = reference_fates(batches, {e.entity_id for e in traffic.catalog})
        return SimpleNamespace(
            size=size, catalog=traffic.catalog, batches=batches, queries=queries, expected=expected
        )

    def input_digest(self, inputs) -> str:
        return sha256(repr((inputs.catalog, inputs.batches, inputs.queries)))

    def run_pass(self, inputs, p: Pass) -> None:
        import repro.ingest as ingest
        from repro.durability import recovery
        from repro.durability.journal import DurableJournal, attach_journal
        from repro.scale.server import ShardedRSPServer
        from repro.telemetry import Telemetry

        size = inputs.size

        def new_server():
            return ShardedRSPServer(inputs.catalog, require_tokens=False, n_shards=self.shards)

        directory = p.fresh_dir("wal")
        server = new_server()
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        journal = DurableJournal(
            directory, n_lanes=self.shards, lane_of=server.router.shard_of, telemetry=telemetry
        )
        attach_journal(server, journal)
        digest = hashlib.sha256()
        offset = 0
        for tick, (batch, queries) in enumerate(zip(inputs.batches, inputs.queries)):
            p.set_request(tick)
            now = tick * self.tick
            maintained = (tick + 1) % size["every"] == 0
            with p.timed("run"):
                ingest.ingest_all(server, batch, now=now)
                if maintained:
                    server.run_maintenance(now=now)
                    # No snapshot after the last cycle: recovery then
                    # replays the WAL tail on top of the newest snapshot.
                    if tick + 1 < size["ticks"]:
                        journal.take_snapshot(server)
                sampled = closed_loop(p, server.query, queries, offset)
            offset += len(queries)
            check_sampled(p, server, sampled, digest, quiescent=maintained)
        journal.close()
        p.digests["reads"] = digest.hexdigest()

        fates = {
            "accepted": server.accepted_envelopes,
            "rejected": server.rejected_envelopes,
            "duplicates": server.duplicates_suppressed,
            "stale": server.opinions_stale,
        }
        p.digests["fates"] = render_fates(fates)
        wrong = sum(abs(fates[key] - inputs.expected[key]) for key in fates)
        p.fail(
            (wrong + 1) // 2,
            f"intake fates {render_fates(fates)} != reference {render_fates(inputs.expected)}",
        )
        p.attempted += sum(len(batch) for batch in inputs.batches) + offset
        p.extras = {
            "scale.shard_skew": shard_skew(server),
            "serve.invalidations": server.serving.stats.invalidations,
        }
        full, durable = capture(server)
        p.state_bytes = len(full)

        fresh = new_server()
        # A restarting process has no garbage from the run before it.
        gc.collect()
        with p.timed("recover"):
            recovery.recover_server(fresh, directory)
        p.attempted += 1
        p.fail(int(capture(fresh)[1] != durable), "recovered state differs from the live server")


class Reads:
    """A warmed single-shard server under light write churn and a read burst
    per round; the query pool sets the working set against the cache."""

    modules = (
        "repro.ingest",
        "repro.serve.loadgen",
        "repro.scale.server",
        "repro.telemetry",
        "repro.durability.snapshot",
    )

    def __init__(self, name: str, full: dict, smoke: dict) -> None:
        self.name = name
        self.sizes = {False: full, True: smoke}

    def setup(self, seed: int, size: dict, watch: SetupWatch):
        from repro.ingest import SyntheticTraffic, WorkloadConfig
        from repro.serve.loadgen import QueryWorkload, SyntheticQueries

        with watch("world"):
            traffic = SyntheticTraffic(
                WorkloadConfig(
                    n_users=100_000,
                    n_entities=size["entities"],
                    opinion_fraction=0.30,
                    seed=seed,
                )
            )
        with watch("loadgen"):
            warm = traffic.batch(size["warm"], 100.0)
            churn = [
                traffic.batch(size["churn"], 10_000.0 + 600.0 * r) for r in range(size["rounds"])
            ]
            source = SyntheticQueries(
                traffic.catalog,
                QueryWorkload(n_distinct=size["pool"], zipf_exponent=size["zipf"], seed=seed),
            )
            bursts = [source.batch(size["queries"]) for _ in range(size["rounds"])]
        return SimpleNamespace(
            size=size, catalog=traffic.catalog, warm=warm, churn=churn, bursts=bursts
        )

    def input_digest(self, inputs) -> str:
        return sha256(repr((inputs.catalog, inputs.warm, inputs.churn, inputs.bursts)))

    def run_pass(self, inputs, p: Pass) -> None:
        import repro.ingest as ingest
        from repro.scale.server import ShardedRSPServer
        from repro.telemetry import Telemetry

        size = inputs.size
        server = ShardedRSPServer(inputs.catalog, require_tokens=False, n_shards=1)
        server.attach_telemetry(Telemetry())
        ingest.ingest_all(server, inputs.warm, now=100.0)
        server.run_maintenance(now=3_000.0)
        if size["cache"] is None:
            server.attach_serving()
        else:
            server.attach_serving(max_cache_entries=size["cache"])
        digest = hashlib.sha256()
        offset = 0
        for round_index, (churn, burst) in enumerate(zip(inputs.churn, inputs.bursts)):
            p.set_request(round_index)
            now = 10_000.0 + 600.0 * round_index
            with p.timed("run"):
                ingest.ingest_all(server, churn, now=now)
                server.run_maintenance(now=now + 60.0)
                sampled = closed_loop(p, server.query, burst, offset)
            offset += len(burst)
            check_sampled(p, server, sampled, digest)
        p.digests["reads"] = digest.hexdigest()

        envelopes = len(inputs.warm) + sum(len(churn) for churn in inputs.churn)
        refused = server.rejected_envelopes + server.duplicates_suppressed
        p.attempted += envelopes + offset
        p.fail(refused, f"{refused} clean envelopes refused")
        p.extras = {
            "scale.shard_skew": shard_skew(server),
            "serve.invalidations": server.serving.stats.invalidations,
        }
        p.state_bytes = len(capture(server)[0])


_READS_SMOKE = dict(entities=200, warm=600, rounds=3, churn=10, queries=300)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Deploy(),
        Ingest(),
        Reads(
            "reads-hot",
            full=dict(entities=1_200, warm=6_000, rounds=20, churn=40, queries=20_000,
                      pool=64, zipf=1.1, cache=None),
            smoke=dict(_READS_SMOKE, pool=64, zipf=1.1, cache=None),
        ),
        Reads(
            "reads-cold",
            full=dict(entities=1_200, warm=6_000, rounds=20, churn=40, queries=2_500,
                      pool=6_000, zipf=0.6, cache=256),
            smoke=dict(_READS_SMOKE, pool=600, zipf=0.6, cache=32),
        ),
    )
}


def pin_failures(workload: str, seed: int, smoke: bool, digests: dict[str, str]) -> list[str]:
    """The pinned digests a pass failed to reproduce."""
    if smoke or seed != PIN_SEED:
        return []
    return [
        f"{workload} {key} digest {digests.get(key)!r} != pinned {expected!r}"
        for key, expected in PINS.get(workload, {}).items()
        if digests.get(key) != expected
    ]
