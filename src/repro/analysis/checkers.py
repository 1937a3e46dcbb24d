"""The two whole-program checkers.

==============================  =================================================
checker id                      what it proves the absence of
==============================  =================================================
``interproc-privacy-taint``     identity-tainted values reaching a sink
                                (upload constructor, telemetry label,
                                service-side log, export/digest payload)
                                through *any* call chain
``determinism-reachability``    wall clock, unseeded RNG, or unordered-set
                                iteration transitively reachable from a
                                digest/export/report entry point
==============================  =================================================

Findings carry a witness call chain and a line-independent fingerprint
(see :class:`~repro.analysis.source.Finding`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.config import AnalysisConfig
from repro.analysis.dataflow import ReturnSummaries, TaintPropagator
from repro.analysis.facts import FunctionFacts, SinkFact
from repro.analysis.project import ProjectIndex
from repro.analysis.rules import RULES, Rule
from repro.analysis.source import Finding


@dataclass
class CheckContext:
    """Everything a checker may consult, computed once per run."""

    config: AnalysisConfig
    index: ProjectIndex
    returns: ReturnSummaries


class Checker:
    checker_id = ""
    description = ""
    rationale = ""

    def run(self, context: CheckContext) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


def _chain_text(chain: tuple[str, ...]) -> str:
    return " -> ".join(chain)


_SINK_KIND_TEXT = {
    "sink": "upload payload",
    "telemetry-label": "telemetry label",
    "log": "log statement",
    "export": "export/digest payload",
}


class InterprocPrivacyTaintChecker(Checker):
    """Identity taint crossing call edges into a publishing position."""

    checker_id = "interproc-privacy-taint"
    description = (
        "identity-bearing values must not reach uploads, telemetry labels, "
        "service logs, or export digests through any call chain"
    )

    def run(self, context: CheckContext) -> list[Finding]:
        findings: dict[tuple, Finding] = {}
        service_packages = context.config.service_packages

        def on_hit(
            facts: FunctionFacts,
            sink: SinkFact,
            sources: frozenset[str],
            chain: tuple[str, ...],
        ) -> None:
            if sink.kind == "log" and not facts.module.startswith(service_packages):
                # Client-side prints are the device talking to its owner.
                return
            key = (facts.path, sink.line, sink.col, sink.kind, sources)
            if key in findings:  # first (BFS-shortest) chain wins
                return
            names = ", ".join(f"`{name}`" for name in sorted(sources))
            where = _SINK_KIND_TEXT.get(sink.kind, sink.kind)
            label = f" (label `{sink.label}`)" if sink.kind == "telemetry-label" else ""
            message = (
                f"identity {names} reaches {where} `{sink.name}`{label} "
                f"in `{facts.qualname}` via {_chain_text(chain)}"
            )
            findings[key] = Finding(
                checker_id=self.checker_id,
                path=facts.path,
                line=sink.line,
                col=sink.col,
                function=facts.qualname,
                message=message,
                chain=chain,
                detail=f"{sink.kind}:{sink.name}:{sink.label}:{','.join(sorted(sources))}",
            )

        TaintPropagator(context.index, context.returns).run(on_hit)
        return list(findings.values())


class DeterminismReachabilityChecker(Checker):
    """No entropy or iteration-order dependence below report entries."""

    checker_id = "determinism-reachability"
    description = (
        "wall clock, unseeded RNG, and unordered-set iteration must not "
        "be reachable from digest/export/report entry points"
    )

    def run(self, context: CheckContext) -> list[Finding]:
        index = context.index
        config = context.config
        roots = sorted(
            qualname
            for qualname in index.functions
            if qualname.rsplit(".", 1)[-1] in config.report_entry_names
            and "<locals>" not in qualname
        )
        if not roots:
            return []
        reached = index.reachable(roots)
        allowed = config.allowed_nondet_modules
        findings: list[Finding] = []
        seen: set[tuple] = set()
        for qualname, chain in sorted(reached.items()):
            facts = index.functions[qualname]
            if facts.module in allowed:
                continue  # the sanctioned entropy/clock plumbing itself
            for resolved in index.resolved_calls(qualname):
                external = resolved.external
                if external is None or not self._is_nondet(config, external):
                    continue
                key = (qualname, external)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    Finding(
                        checker_id=self.checker_id,
                        path=facts.path,
                        line=resolved.site.line,
                        col=resolved.site.col,
                        function=qualname,
                        message=(
                            f"nondeterministic `{external}` is reachable "
                            f"from report entry `{chain[0]}`; chain: "
                            f"{_chain_text(chain)}"
                        ),
                        chain=chain,
                        detail=f"call:{external}",
                    )
                )
            for name, line, col in facts.unordered:
                key = (qualname, "iter", name, line)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    Finding(
                        checker_id=self.checker_id,
                        path=facts.path,
                        line=line,
                        col=col,
                        function=qualname,
                        message=(
                            f"iteration over unordered set `{name}` in "
                            f"`{qualname}` is reachable from report entry "
                            f"`{chain[0]}`; chain: {_chain_text(chain)}"
                        ),
                        chain=chain,
                        detail=f"iter:{name}",
                    )
                )
        return findings

    @staticmethod
    def _is_nondet(config: AnalysisConfig, dotted: str) -> bool:
        if dotted in config.nondet_calls:
            return True
        return any(dotted.startswith(prefix) for prefix in config.nondet_prefixes)


def default_checkers() -> list[Checker]:
    return [
        InterprocPrivacyTaintChecker(),
        DeterminismReachabilityChecker(),
    ]


def all_checks() -> list[Rule | Checker]:
    """Everything the analyzer reports under its own id: the per-file
    rules, then the whole-program checkers."""
    return [*RULES, *default_checkers()]
