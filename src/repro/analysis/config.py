"""Configuration for the analyzer.

One :class:`AnalysisConfig` serves the per-file rules and the
whole-program checkers, so both agree on what "identity-bearing",
"service side" and "sanctioned entropy" mean.  The defaults encode this
repository's invariants; tests override them to point the analyzer at
fixture trees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from repro.analysis.source import in_package


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for the per-file rules and the interprocedural checkers."""

    # -- determinism: the only modules allowed to touch raw entropy/time.
    rng_modules: frozenset[str] = frozenset({"repro.util.rng"})
    clock_modules: frozenset[str] = frozenset({"repro.util.clock"})

    # -- privacy taint: identifier spellings that carry a raw identity.
    identity_names: frozenset[str] = frozenset(
        {
            "user_id",
            "device_id",
            "secret",
            "user_secret",
            "account_id",
            "email",
            "phone_number",
            "true_owner",
        }
    )
    #: Constructors of records that leave the device or get published.
    sink_names: frozenset[str] = frozenset(
        {"InteractionUpload", "OpinionUpload", "Envelope", "PublishedSummary"}
    )
    #: Calls whose *output* is unlinkable regardless of input — the
    #: sanctioned ways an identity may reach a sink.
    sanitizers: frozenset[str] = frozenset(
        {"history_id", "record_id", "stable_digest", "stable_u64", "blind", "unblind"}
    )
    #: Package prefixes forming the server side of the architecture.
    #: ``repro.scale`` is the sharded deployment of the same service,
    #: ``repro.serve`` its read path, ``repro.reshard`` its live
    #: topology changes, and ``repro.ingest`` its intake loop (where every
    #: envelope is acknowledged) — all held to the same identity-handling,
    #: ordering and WAL-before-ack rules.
    service_packages: tuple[str, ...] = (
        "repro.service",
        "repro.scale",
        "repro.serve",
        "repro.reshard",
        "repro.ingest",
    )

    # -- telemetry labels: where the label-privacy policy is enforced.
    #: Attribute spellings that hold a telemetry sink (``self.telemetry``,
    #: a bare ``telemetry`` local, or its ``metrics``/``spans`` facets).
    telemetry_receivers: frozenset[str] = frozenset({"telemetry", "metrics", "spans"})
    #: Recording and binding methods whose keyword arguments are label
    #: positions (a bound instrument carries its labels from bind time).
    telemetry_methods: frozenset[str] = frozenset(
        {"inc", "observe", "set_gauge", "span", "record", "counter", "histogram"}
    )
    #: Keyword parameters of those methods that carry measurement values,
    #: not labels — exempt from the label taint check.
    telemetry_value_params: frozenset[str] = frozenset(
        {"n", "value", "buckets", "scope", "start", "end", "now"}
    )

    # -- layering: packages forming the device side of the architecture.
    client_packages: tuple[str, ...] = ("repro.client", "repro.sensing")

    # -- fault containment: chaos tooling and who may import it.
    #: Packages that implement fault injection.
    fault_packages: tuple[str, ...] = ("repro.faults",)
    #: The experiment harness — the only code allowed to script faults.
    fault_harness_packages: tuple[str, ...] = (
        "repro.faults",
        "repro.orchestration",
        "repro.cli",
    )
    #: Root under which the containment rule applies (tests are outside).
    fault_guarded_packages: tuple[str, ...] = ("repro",)

    # -- durability: the WAL-before-ack commit protocol.
    #: Journal methods that persist an accepted mutation.
    wal_append_methods: frozenset[str] = frozenset(
        {"log_interaction", "log_opinion", "log_review", "log_issue", "append_record"}
    )
    #: Attribute/name spellings that hold the journal in service code.
    wal_receivers: frozenset[str] = frozenset({"journal", "wal", "_wal"})
    #: Counter spellings whose bump acknowledges an envelope.
    accept_commit_counters: frozenset[str] = frozenset({"accepted_envelopes"})
    #: Set spellings whose ``.add`` burns a nonce or spends a token (the
    #: rest of the acceptance commit): the server's nonce table, the intake
    #: loop's local binding of it, and the redeemer's spent-token set.
    accept_commit_sets: frozenset[str] = frozenset({"_seen_nonces", "seen_nonces", "_spent"})
    #: The server method that performs the acceptance commit wholesale.
    accept_commit_calls: frozenset[str] = frozenset({"commit_acceptance"})
    #: File-handle spellings inside the durability package whose ``write``
    #: must be paired with a flush/fsync in the same function.
    wal_file_receivers: frozenset[str] = frozenset({"_file", "_fh"})
    #: The package implementing WAL/snapshot persistence.
    durability_packages: tuple[str, ...] = ("repro.durability",)

    # -- whole-program checkers.
    #: Dotted package roots considered *project* code.  Symbols outside
    #: these roots are external: their calls are resolved by name only
    #: and their returns are treated conservatively (taint in → taint out).
    project_packages: tuple[str, ...] = ("repro",)

    #: Qualname suffixes that mark digest/export/report entry points for
    #: ``determinism-reachability`` (matched against the last segment).
    report_entry_names: frozenset[str] = frozenset(
        {
            "digest",
            "export",
            "export_json",
            "export_text",
            "run_maintenance",
        }
    )

    #: External callables whose output depends on wall clock or process
    #: entropy.  Exact dotted names …
    nondet_calls: frozenset[str] = frozenset(
        {
            "os.urandom",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.time",
            "time.time_ns",
            "uuid.uuid1",
            "uuid.uuid4",
            "datetime.datetime.now",
            "datetime.datetime.today",
            "datetime.datetime.utcnow",
            "datetime.date.today",
        }
    )
    #: … and whole dotted prefixes (every function under them).
    nondet_prefixes: tuple[str, ...] = ("random.", "numpy.random.", "secrets.")

    #: Function names whose *arguments* are export/digest payloads — an
    #: identity-bearing value passed to one is republished (sink kind
    #: ``export`` for ``interproc-privacy-taint``).
    export_sink_names: frozenset[str] = frozenset(
        {"digest", "export", "export_json", "export_text"}
    )

    #: Logging-style callables treated as privacy sinks inside the
    #: service packages (``service_packages``): ``print`` plus
    #: the stdlib logger methods.
    log_methods: frozenset[str] = frozenset(
        {"print", "debug", "info", "warning", "error", "critical", "exception", "log"}
    )

    @property
    def allowed_nondet_modules(self) -> frozenset[str]:
        """Modules exempt from nondeterminism findings: the sanctioned
        entropy/time plumbing itself."""
        return self.rng_modules | self.clock_modules

    def in_project(self, dotted: str) -> bool:
        return in_package(dotted, self.project_packages)

    def fingerprint(self) -> str:
        """Digest of every field — keys the fact cache, so any config
        change invalidates cached per-file facts.  Set-valued fields are
        sorted: ``repr(frozenset)`` order varies with ``PYTHONHASHSEED``."""
        payload = repr(
            [
                sorted(value) if isinstance(value, frozenset) else value
                for value in (getattr(self, f.name) for f in fields(self))
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
