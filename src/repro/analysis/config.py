"""Configuration for the whole-program analyzer.

:class:`AnalysisConfig` layers on :class:`repro.lint.engine.LintConfig`
(identity names, sanitizers, sink constructors, telemetry vocabulary are
shared — the two analyzers must agree on what "identity-bearing" means)
and adds the whole-program knobs: which packages form the project, which
module holds the commutative merge registry, and which call targets are
nondeterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.lint.engine import LintConfig


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for the interprocedural checkers."""

    lint: LintConfig = field(default_factory=LintConfig)

    #: Dotted package roots considered *project* code.  Symbols outside
    #: these roots are external: their calls are resolved by name only
    #: and their returns are treated conservatively (taint in → taint out).
    project_packages: tuple[str, ...] = ("repro",)

    #: Modules whose top-level functions form the commutative merge
    #: registry — everything here must be side-effect-free on its inputs
    #: and read no mutable module state (``merge-purity``).
    merge_modules: tuple[str, ...] = ("repro.scale.merge",)

    #: Method names that mutate their receiver in place.
    mutator_methods: frozenset[str] = frozenset(
        {
            "add",
            "append",
            "appendleft",
            "clear",
            "discard",
            "extend",
            "insert",
            "pop",
            "popitem",
            "popleft",
            "remove",
            "reverse",
            "setdefault",
            "sort",
            "update",
            "write",
            "writelines",
        }
    )

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
    #: service packages (``self.lint.service_packages``): ``print`` plus
    #: the stdlib logger methods.
    log_methods: frozenset[str] = frozenset(
        {"print", "debug", "info", "warning", "error", "critical", "exception", "log"}
    )

    @property
    def allowed_nondet_modules(self) -> frozenset[str]:
        """Modules exempt from nondeterminism findings: the sanctioned
        entropy/time plumbing itself."""
        return self.lint.rng_modules | self.lint.clock_modules

    def in_project(self, dotted: str) -> bool:
        return any(
            dotted == root or dotted.startswith(root + ".")
            for root in self.project_packages
        )

    def fingerprint(self) -> str:
        """Digest of every knob — keys the fact cache, so a config change
        invalidates cached per-file facts."""
        payload = repr(
            (
                sorted(self.lint.identity_names),
                sorted(self.lint.sanitizers),
                sorted(self.lint.sink_names),
                sorted(self.lint.telemetry_receivers),
                sorted(self.lint.telemetry_methods),
                sorted(self.lint.telemetry_value_params),
                self.lint.service_packages,
                self.project_packages,
                self.merge_modules,
                sorted(self.mutator_methods),
                sorted(self.report_entry_names),
                sorted(self.nondet_calls),
                self.nondet_prefixes,
                sorted(self.export_sink_names),
                sorted(self.log_methods),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
