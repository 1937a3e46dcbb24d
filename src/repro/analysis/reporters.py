"""Render an :class:`AnalysisResult` as text, JSON, or SARIF 2.1.0.

The text form is for humans at a terminal; JSON is for scripts and the
test-suite; SARIF is the interchange format code hosts ingest for
annotation (one ``run``, one rule per rule/checker id, fingerprints under the
``reproAnalysis/v1`` key so re-uploads dedupe).
"""

from __future__ import annotations

import json

from repro.analysis.checkers import all_checks
from repro.analysis.engine import AnalysisResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_text(
    result: AnalysisResult,
    show_suppressed: bool = False,
    show_chains: bool = False,
) -> str:
    lines: list[str] = []
    for error in result.parse_errors:
        lines.append(error.render())
    for finding in result.findings:
        lines.append(finding.render())
        if show_chains and len(finding.chain) > 1:
            lines.append(f"    chain: {' -> '.join(finding.chain)}")
    for entry in result.stale_baseline:
        lines.append(
            f"stale baseline entry {entry['fingerprint']} "
            f"({entry.get('checker_id', '?')} in {entry.get('path', '?')}): "
            "finding no longer produced; remove it or run --update-baseline"
        )
    for waiver in result.dead_waivers:
        lines.append(f"stale inline waiver at {waiver.path}:{waiver.line}: {waiver.message}")
    if show_suppressed:
        for finding in result.suppressed:
            lines.append(finding.render(tag=" (suppressed)"))
        for finding in result.baselined:
            lines.append(finding.render(tag=" (baselined)"))
    counts = (
        f"{result.n_files} file(s) analyzed, {result.n_cached} from cache; "
        f"{len(result.baselined)} baselined, {len(result.suppressed)} suppressed"
    )
    if result.ok:
        lines.append(f"OK: {counts}")
    else:
        problems = len(result.findings) + len(result.stale_baseline)
        problems += len(result.dead_waivers) + len(result.parse_errors)
        lines.append(f"FAIL: {problems} problem(s); {counts}")
    return "\n".join(lines)


def render_json(result: AnalysisResult, show_suppressed: bool = False) -> str:
    document = {
        "ok": result.ok,
        "files_analyzed": result.n_files,
        "files_from_cache": result.n_cached,
        "finding_count": len(result.findings),
        "findings": [finding.to_dict() for finding in result.findings],
        "baselined_count": len(result.baselined),
        "suppressed_count": len(result.suppressed),
        "stale_baseline": list(result.stale_baseline),
        "dead_waivers": [f.to_dict() for f in result.dead_waivers],
        "parse_errors": [f.to_dict() for f in result.parse_errors],
    }
    if show_suppressed:
        document["suppressed"] = [f.to_dict() for f in result.suppressed]
        document["baselined"] = [f.to_dict() for f in result.baselined]
    return json.dumps(document, indent=2, sort_keys=False)


def render_sarif(result: AnalysisResult) -> str:
    rules = [
        {"id": check.checker_id, "shortDescription": {"text": check.description}}
        for check in all_checks()
    ]
    results = []
    for finding in result.findings + result.parse_errors:
        results.append(
            {
                "ruleId": finding.checker_id,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {
                                "startLine": finding.line,
                                "startColumn": max(finding.col, 0) + 1,
                            },
                        }
                    }
                ],
                "fingerprints": {"reproAnalysis/v1": finding.fingerprint},
            }
        )
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=False)
