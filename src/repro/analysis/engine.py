"""Run orchestration for the analyzer.

Pipeline::

    files ──(FactLoader: cache or parse+extract+rules)──▶ ModuleFacts*
          ──(ProjectIndex.build)───────────────────────▶ symbols + call graph
          ──(ReturnSummaries)───────────────────────────▶ return summaries
          ──(checkers)──────────────────────────────────▶ whole-program findings
          ──(inline waivers)────────────────────────────▶ produced findings
          ──(selection, baseline)───────────────────────▶ AnalysisResult

Only the first stage is per-file and cacheable; everything after runs on
the in-memory facts and is fast enough to repeat on every invocation.
Every rule and checker always runs; ``select`` filters what is reported,
so neither cache level depends on the selection.
"""

from __future__ import annotations

import hashlib
from collections.abc import Collection
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.cache import FactLoader, file_digest
from repro.analysis.checkers import CheckContext, all_checks, default_checkers
from repro.analysis.config import AnalysisConfig
from repro.analysis.dataflow import ReturnSummaries
from repro.analysis.facts import ModuleFacts
from repro.analysis.project import ProjectIndex
from repro.analysis.source import Finding, iter_python_files

#: How a produced finding was disposed before selection and baseline.
_DISPOSITIONS = ("findings", "suppressed", "dead_waivers")


@dataclass
class AnalysisResult:
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict] = field(default_factory=list)
    #: inline waivers of a selected rule that suppressed nothing
    dead_waivers: list[Finding] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)
    n_files: int = 0
    n_cached: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.findings or self.stale_baseline or self.dead_waivers or self.parse_errors
        )

    def all_produced(self) -> list[Finding]:
        """Every selected finding, however it was disposed."""
        return sorted(
            self.findings + self.suppressed + self.baselined, key=lambda f: f.sort_key
        )


@dataclass
class WholeProgramAnalyzer:
    """Front door: load facts, build the program view, run every check."""

    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    #: rule/checker ids to report (None: all of them)
    select: Collection[str] | None = None
    cache_path: Path | str | None = None

    def run(
        self, paths: Sequence[Path | str], baseline: Baseline | None = None
    ) -> AnalysisResult:
        result = AnalysisResult()
        loader = FactLoader(
            self.config,
            cache_path=None if self.cache_path is None else Path(self.cache_path),
        )
        files = [Path(path) for path in iter_python_files(paths)]
        result.n_files = len(files)

        # Program-level short circuit: the produced findings are a pure
        # function of (config, file bytes), so an unchanged file set
        # replays them without building the index or the summaries.  The
        # selection and the baseline are applied fresh.
        digests: dict[Path, str] = {}
        program_key: str | None = None
        for path in files:
            try:
                digests[path] = file_digest(path)
            except OSError:
                break
        else:
            program_key = hashlib.sha256(
                "\n".join(f"{path}\0{digests[path]}" for path in files).encode("utf-8")
            ).hexdigest()
            replay = loader.cached_program(program_key)
            if replay is not None:
                result.n_cached = len(files)
                produced = {
                    name: [Finding.from_dict(raw) for raw in replay.get(name, [])]
                    for name in _DISPOSITIONS
                }
                return self._finish(result, produced, baseline)

        facts: list[ModuleFacts] = []
        for path in files:
            loaded = loader.load(path, digest=digests.get(path))
            if isinstance(loaded, Finding):
                result.parse_errors.append(loaded)
            else:
                facts.append(loaded)
        result.n_cached = loader.hits

        produced = self._produce(facts)
        if program_key is not None and not result.parse_errors:
            loader.store_program(
                program_key,
                {name: [f.to_dict() for f in produced[name]] for name in _DISPOSITIONS},
            )
        loader.save()
        return self._finish(result, produced, baseline)

    def _produce(self, facts: Sequence[ModuleFacts]) -> dict[str, list[Finding]]:
        """Run every check, de-duplicate, and apply the inline waivers."""
        index = ProjectIndex.build(self.config, facts)
        context = CheckContext(
            config=self.config, index=index, returns=ReturnSummaries(index)
        )
        modules_by_path = {module.path: module for module in facts}
        unsuppressed: list[Finding] = []
        suppressed: list[Finding] = []
        seen: set[tuple] = set()
        for finding in chain(
            (f for module in facts for f in module.findings),
            (f for checker in default_checkers() for f in checker.run(context)),
        ):
            key = (finding.checker_id, finding.path, finding.line, finding.col, finding.message)
            if key in seen:
                continue
            seen.add(key)
            module = modules_by_path.get(finding.path)
            if module is not None and module.suppressed(finding.checker_id, finding.line):
                suppressed.append(finding)
            else:
                unsuppressed.append(finding)
        return {
            "findings": unsuppressed,
            "suppressed": suppressed,
            "dead_waivers": list(_dead_waivers(facts, suppressed)),
        }

    def _finish(
        self,
        result: AnalysisResult,
        produced: dict[str, list[Finding]],
        baseline: Baseline | None,
    ) -> AnalysisResult:
        selected = None if self.select is None else frozenset(self.select)

        def chosen(findings: list[Finding]) -> list[Finding]:
            return sorted(
                (f for f in findings if selected is None or f.checker_id in selected),
                key=lambda f: f.sort_key,
            )

        result.findings, result.baselined, result.stale_baseline = (
            baseline or Baseline()
        ).split(chosen(produced["findings"]), selected)
        result.suppressed = chosen(produced["suppressed"])
        result.dead_waivers = chosen(produced["dead_waivers"])
        result.parse_errors.sort(key=lambda f: f.sort_key)
        return result


def _dead_waivers(
    facts: Sequence[ModuleFacts], suppressed: list[Finding]
) -> Iterator[Finding]:
    """Waivers of a known id that suppressed nothing: dead waivers are
    how real debt hides, so they fail the run like stale baseline
    entries.  Spellings of unknown ids (prose, examples) are not waivers."""
    known = {check.checker_id for check in all_checks()}
    used = {(f.path, f.checker_id, f.line) for f in suppressed}
    used_anywhere = {(f.path, f.checker_id) for f in suppressed}
    for module in facts:
        waivers = [
            (line, rule_id, (module.path, rule_id, line) in used)
            for line, rule_ids in module.line_suppressions.items()
            for rule_id in rule_ids
        ] + [
            (1, rule_id, (module.path, rule_id) in used_anywhere)
            for rule_id in module.file_suppressions
        ]
        for line, rule_id, hit in sorted(waivers):
            if rule_id in known and not hit:
                yield Finding(
                    checker_id=rule_id,
                    path=module.path,
                    line=line,
                    col=0,
                    function=module.module,
                    message=f"waiver `allow[{rule_id}]` suppresses nothing; remove it",
                    detail="dead-waiver",
                )
