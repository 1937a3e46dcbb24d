"""The layer map: which program functions the tracer wraps, and how the
per-layer metrics are derived from the spans and counts they record.

Each span is named ``<layer>.<what>``; the layer names follow the
``repro`` packages.  Targets are public functions and methods only, so
that a refactor which keeps the public surface keeps the trace; a target
that disappears is reported and skipped (``Tracer.missing``).
"""

from __future__ import annotations

import statistics
from pathlib import Path

from bench.trace import SEGMENT_PREFIX, Target, Tracer, layer_of, self_time_by_name

_FATES = ("ingest.accepted", "ingest.rejected", "ingest.duplicates", "ingest.stale")


def _fates(server) -> tuple[int, int, int, int]:
    return (
        server.accepted_envelopes,
        server.rejected_envelopes,
        server.duplicates_suppressed,
        server.opinions_stale,
    )


def _intake_before(args, kwargs):
    return _fates(args[0])


def _intake_after(tracer: Tracer, index, before, args, kwargs, result) -> None:
    # One intake front end may delegate to another; only the outermost
    # intake span counts its batch.
    if layer_of(tracer.parent_name(index) or "") == "ingest":
        return
    deliveries = args[1] if len(args) > 1 else kwargs["deliveries"]
    tracer.counts["ingest.envelopes"] += len(deliveries)
    for key, old, new in zip(_FATES, before, _fates(args[0])):
        tracer.counts[key] += new - old


def _count_len(key):
    def after(tracer, index, before, args, kwargs, result):
        tracer.counts[key] += len(result)

    return after


def _count_value(key):
    def after(tracer, index, before, args, kwargs, result):
        tracer.counts[key] += result

    return after


def _maintenance_after(tracer, index, before, args, kwargs, result) -> None:
    dirty = args[0].telemetry.value("rsp.maintenance.dirty_entities")
    tracer.counts["service.dirty_entities"] += int(dirty or 0)


def _snapshot_after(tracer, index, before, args, kwargs, result) -> None:
    tracer.counts["durability.snapshot_bytes"] += Path(result).stat().st_size


def _recover_after(tracer, index, before, args, kwargs, result) -> None:
    tracer.counts["durability.replayed"] += result.n_replayed


def _epoch_after(tracer, index, before, args, kwargs, result) -> None:
    # run_epochs records one simulated-time "epoch" span as each epoch
    # ends; its wall-clock moment is the epoch boundary.
    if args[1] == "epoch":
        tracer.samples["orchestration.epoch_end"].append(tracer.clock())
        tracer.request += 1


TARGETS: tuple[Target, ...] = (
    Target("repro.orchestration.epochs.generate_trace", "sensing.trace"),
    Target("repro.sensing.resolution.EntityResolver.resolve", "sensing.resolve"),
    Target("repro.client.app.RSPClient.__init__", "client.install"),
    Target(
        "repro.client.app.RSPClient.observe_trace",
        "client.observe",
        after=_count_len("client.resolved"),
    ),
    Target("repro.client.app.infer_home", "client.home"),
    Target("repro.client.app.RSPClient.sync", "client.sync", after=_count_value("client.submitted")),
    Target("repro.client.app.RSPClient.checkpoint", "client.checkpoint"),
    Target("repro.client.app.extract_all_features", "core.features"),
    Target("repro.core.classifier.OpinionClassifier.predict", "core.predict"),
    Target(
        "repro.privacy.tokens.TokenIssuer.issue",
        "privacy.issue",
        after=_count_len("privacy.tokens_signed"),
    ),
    Target("repro.privacy.anonymity.AnonymityNetwork.submit", "privacy.mix"),
    Target("repro.privacy.anonymity.AnonymityNetwork.deliveries_until", "privacy.mix"),
    Target("repro.telemetry.api.Telemetry.span", None, after=_epoch_after),
    Target("repro.ingest.ingest_all", "ingest.intake", _intake_before, _intake_after),
    Target(
        "repro.service.server.RSPServer.receive_all",
        "ingest.intake",
        _intake_before,
        _intake_after,
    ),
    Target("repro.service.server.RSPServer.post_review", "ingest.review"),
    Target(
        "repro.durability.wal.WriteAheadLog.append_record",
        "durability.wal_append",
        after=_count_value("durability.wal_bytes"),
    ),
    Target("repro.durability.wal.WriteAheadLog.sync_to_disk", "durability.fsync"),
    Target(
        "repro.durability.journal.DurableJournal.take_snapshot",
        "durability.snapshot",
        after=_snapshot_after,
    ),
    Target("repro.durability.recovery.recover_server", "durability.recover", after=_recover_after),
    Target("repro.durability.recovery.load_latest_snapshot", "durability.snapshot_load"),
    Target("repro.durability.recovery.restore_state", "durability.snapshot_load"),
    Target(
        "repro.service.server.RSPServer.run_maintenance",
        "service.maintenance",
        after=_maintenance_after,
    ),
    Target(
        "repro.scale.server.ShardedRSPServer.run_maintenance",
        "service.maintenance",
        after=_maintenance_after,
    ),
    Target("repro.service.server.RSPServer.query", "serve.query"),
    Target("repro.scale.server.ShardedRSPServer.query", "serve.query"),
    # The cache is filled exactly when a query missed, so a serve.query
    # span with a serve.fill child is a miss.
    Target("repro.serve.cache.SummaryVersionCache.put", "serve.fill"),
)


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, reading 0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0


def median_or_zero(values) -> float:
    """The median, reading 0 when there are no values."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, extras: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``extras`` holds the values the workload reads off the deployment at
    the end of the pass (deferred envelopes, shard skew, invalidations).
    Time metrics ending in ``_s`` are self time.
    """
    own = self_time_by_name(tracer)
    calls: dict[str, int] = {}
    first_trace_start = None
    segment_time = 0.0
    queries: list[int] = []
    filled: set[int] = set()
    for index in range(len(tracer)):
        name = tracer.name_of(index)
        calls[name] = calls.get(name, 0) + 1
        if name.startswith(SEGMENT_PREFIX):
            segment_time += tracer.duration(index)
        elif name == "serve.query":
            queries.append(index)
        elif name == "serve.fill":
            filled.add(tracer.parents[index])
        elif name == "sensing.trace" and first_trace_start is None:
            first_trace_start = tracer.starts[index]
    hits = [tracer.duration(index) for index in queries if index not in filled]
    misses = [tracer.duration(index) for index in queries if index in filled]
    layer_time = sum(value for name, value in own.items() if not name.startswith(SEGMENT_PREFIX))
    counts = tracer.counts

    epoch_ends = tracer.samples.get("orchestration.epoch_end", [])
    epochs = []
    if epoch_ends and first_trace_start is not None:
        bounds = [first_trace_start] + list(epoch_ends)
        epochs = [end - start for start, end in zip(bounds, bounds[1:])]
    first = epochs[0] if epochs else 0.0
    last = epochs[-1] if epochs else 0.0

    envelopes = counts["ingest.envelopes"]
    replayed = counts["durability.replayed"]
    dirty = counts["service.dirty_entities"]
    tokens = counts["privacy.tokens_signed"]
    return {
        "sensing.trace_s": own.get("sensing.trace", 0.0),
        "sensing.trace_calls": calls.get("sensing.trace", 0),
        "sensing.resolve_s": own.get("sensing.resolve", 0.0),
        "client.observe_s": own.get("client.observe", 0.0),
        "client.home_s": own.get("client.home", 0.0),
        "client.sync_s": own.get("client.sync", 0.0),
        "client.checkpoint_s": own.get("client.checkpoint", 0.0),
        "client.resolved": counts["client.resolved"],
        "client.submitted": counts["client.submitted"],
        "client.useful_ratio": _ratio(counts["client.submitted"], counts["client.resolved"]),
        "core.features_s": own.get("core.features", 0.0),
        "core.predict_s": own.get("core.predict", 0.0),
        "core.predictions": calls.get("core.predict", 0),
        "privacy.issue_s": own.get("privacy.issue", 0.0),
        "privacy.tokens_signed": tokens,
        "privacy.us_per_token": _ratio(own.get("privacy.issue", 0.0) * 1e6, tokens),
        "privacy.mix_s": own.get("privacy.mix", 0.0),
        "privacy.deferred_envelopes": extras.get("privacy.deferred_envelopes", 0),
        "orchestration.epoch_first_s": first,
        "orchestration.epoch_last_s": last,
        "orchestration.epoch_growth": _ratio(last, first),
        "ingest.busy_s": own.get("ingest.intake", 0.0) + own.get("ingest.review", 0.0),
        "ingest.envelopes": envelopes,
        "ingest.us_per_envelope": _ratio(own.get("ingest.intake", 0.0) * 1e6, envelopes),
        "ingest.accepted": counts["ingest.accepted"],
        "ingest.rejected": counts["ingest.rejected"],
        "ingest.duplicates": counts["ingest.duplicates"],
        "ingest.stale": counts["ingest.stale"],
        "durability.wal_appends": calls.get("durability.wal_append", 0),
        "durability.wal_bytes": counts["durability.wal_bytes"],
        "durability.fsyncs": calls.get("durability.fsync", 0),
        "durability.fsync_s": own.get("durability.fsync", 0.0),
        "durability.snapshots": calls.get("durability.snapshot", 0),
        "durability.snapshot_s": own.get("durability.snapshot", 0.0),
        "durability.snapshot_bytes": counts["durability.snapshot_bytes"],
        "durability.replayed": replayed,
        "durability.replay_us_per_record": _ratio(
            own.get("durability.recover", 0.0) * 1e6, replayed
        ),
        "service.maintenance_s": own.get("service.maintenance", 0.0),
        "service.cycles": calls.get("service.maintenance", 0),
        "service.dirty_entities": dirty,
        "service.ms_per_dirty_entity": _ratio(own.get("service.maintenance", 0.0) * 1e3, dirty),
        "scale.shard_skew": extras.get("scale.shard_skew", 0.0),
        "serve.busy_s": own.get("serve.query", 0.0) + own.get("serve.fill", 0.0),
        "serve.queries": len(queries),
        "serve.hit_rate": _ratio(len(hits), len(queries)),
        "serve.invalidations": extras.get("serve.invalidations", 0),
        "serve.hit_p50_us": median_or_zero(hits) * 1e6,
        "serve.miss_p50_us": median_or_zero(misses) * 1e6,
        "trace.coverage": _ratio(layer_time, segment_time),
    }
