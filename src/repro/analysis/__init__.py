"""Static analysis for the opinion-repository codebase.

The paper's guarantees are structural, so one analyzer checks structure.
Twelve per-file rules (:mod:`repro.analysis.rules`) run once per file
during fact extraction:

* **privacy** (``priv-taint-sink``, ``priv-server-identity``,
  ``priv-telemetry-label``) — raw identities reach upload/publication
  sinks only through ``hash(Ru, e)`` / blind-signature sanitizers, never
  surface in service-layer APIs, and never appear in telemetry labels;
* **determinism** (``det-random-module``, ``det-wall-clock``,
  ``det-numpy-random``, ``det-dirty-iteration``, ``det-read-path``) —
  all entropy flows through ``repro.util.rng``, all time through
  ``repro.util.clock``, and service-layer iteration is explicitly ordered;
* **layering** (``layer-client-service``, ``layer-service-client``) and
  **fault containment** (``faults-only-in-harness``) — device and service
  code meet only in ``repro.orchestration``, and only the harness sees
  the fault plan;
* **durability** (``durability-fsync-before-ack``) — intake journals
  before it acknowledges, and WAL writes are flushed.

A project-wide symbol table and call graph then feed two
interprocedural checkers (:mod:`repro.analysis.checkers`):

* ``interproc-privacy-taint`` — identity values reaching a publishing
  position through any call chain;
* ``determinism-reachability`` — entropy/clock/unordered iteration
  reachable from digest and report entry points.

Run it with ``python -m repro.analysis <paths>`` or ``repro analyze``;
see ``docs/STATIC_ANALYSIS.md`` for the architecture and the
waiver/baseline workflow.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.checkers import (
    CheckContext,
    Checker,
    DeterminismReachabilityChecker,
    InterprocPrivacyTaintChecker,
    all_checks,
    default_checkers,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.dataflow import ReturnSummaries, TaintPropagator
from repro.analysis.engine import AnalysisResult, WholeProgramAnalyzer
from repro.analysis.facts import ModuleFacts, extract
from repro.analysis.project import ProjectIndex, ResolvedCall
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.rules import RULES, Rule
from repro.analysis.source import Finding, ParsedModule, parse_module

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Baseline",
    "CheckContext",
    "Checker",
    "DeterminismReachabilityChecker",
    "Finding",
    "InterprocPrivacyTaintChecker",
    "ModuleFacts",
    "ParsedModule",
    "ProjectIndex",
    "RULES",
    "ResolvedCall",
    "ReturnSummaries",
    "Rule",
    "TaintPropagator",
    "WholeProgramAnalyzer",
    "all_checks",
    "default_checkers",
    "extract",
    "parse_module",
    "render_json",
    "render_sarif",
    "render_text",
]
