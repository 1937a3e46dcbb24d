"""Whole-program static analysis for the opinion-repository codebase.

Where :mod:`repro.lint` checks one file at a time, this package builds a
project-wide symbol table and call graph, propagates taint and mutation
summaries across call edges, and runs three interprocedural checkers:

* ``interproc-privacy-taint`` — identity values reaching a publishing
  position through any call chain;
* ``merge-purity`` — side effects inside the commutative merge registry;
* ``determinism-reachability`` — entropy/clock/unordered iteration
  reachable from digest and report entry points.

See ``docs/STATIC_ANALYSIS.md`` for the architecture and the
baseline/suppression workflow.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.checkers import (
    CheckContext,
    Checker,
    DeterminismReachabilityChecker,
    Finding,
    InterprocPrivacyTaintChecker,
    MergePurityChecker,
    default_checkers,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.dataflow import MutationSummaries, ReturnSummaries, TaintPropagator
from repro.analysis.engine import AnalysisResult, WholeProgramAnalyzer
from repro.analysis.facts import ModuleFacts, extract
from repro.analysis.project import ProjectIndex, ResolvedCall
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Baseline",
    "CheckContext",
    "Checker",
    "DeterminismReachabilityChecker",
    "Finding",
    "InterprocPrivacyTaintChecker",
    "MergePurityChecker",
    "ModuleFacts",
    "MutationSummaries",
    "ProjectIndex",
    "ResolvedCall",
    "ReturnSummaries",
    "TaintPropagator",
    "WholeProgramAnalyzer",
    "default_checkers",
    "extract",
    "render_json",
    "render_sarif",
    "render_text",
]
