"""Findings baseline: accepted debt, keyed by stable fingerprints.

The dogfooding contract: a full analyzer pass over ``src/repro`` must be
*clean* — every finding either fixed, suppressed inline with
``# repro: allow[checker-id]``, or recorded here with a one-line
justification.  Fingerprints are line-independent (checker, file,
function, salient detail), so moving code does not churn the baseline.

Staleness is an error, not a shrug: a baseline entry whose fingerprint
no longer matches any produced finding fails the run until the entry is
deleted (``--update-baseline`` does it).  Dead waivers are how real debt
hides.  Under ``--select``/``--ignore`` only the entries of the selected
ids are judged (or rewritten); the others are kept verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.source import Finding

BASELINE_VERSION = 1
_TODO = "TODO: justify this waiver"


@dataclass
class Baseline:
    path: Path | None = None
    #: fingerprint -> entry dict (checker_id, path, function, justification)
    entries: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path | str | None) -> "Baseline":
        if path is None:
            return cls()
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return cls(path=path)
        if not isinstance(raw, dict) or raw.get("version") != BASELINE_VERSION:
            raise ValueError(f"unsupported baseline format in {path}")
        entries = {
            entry["fingerprint"]: entry
            for entry in raw.get("findings", [])
            if isinstance(entry, dict) and "fingerprint" in entry
        }
        return cls(path=path, entries=entries)

    def split(
        self, findings: list[Finding], selected: frozenset[str] | None = None
    ) -> tuple[list[Finding], list[Finding], list[dict]]:
        """Partition into (new, baselined, stale baseline entries), judging
        staleness only for entries of a ``selected`` id (None: all)."""
        new: list[Finding] = []
        baselined: list[Finding] = []
        matched: set[str] = set()
        for finding in findings:
            if finding.fingerprint in self.entries:
                matched.add(finding.fingerprint)
                baselined.append(finding)
            else:
                new.append(finding)
        stale = [
            entry
            for fingerprint, entry in sorted(self.entries.items())
            if fingerprint not in matched
            and (selected is None or entry.get("checker_id") in selected)
        ]
        return new, baselined, stale

    def updated_with(
        self, findings: list[Finding], selected: frozenset[str] | None = None
    ) -> dict:
        """Document accepting exactly the given findings for the
        ``selected`` ids (None: all), keeping the justification of every
        entry that survives and every entry of an unselected id verbatim."""
        records = {
            fingerprint: entry
            for fingerprint, entry in self.entries.items()
            if selected is not None and entry.get("checker_id") not in selected
        }
        for finding in findings:
            if finding.fingerprint in records:
                continue
            previous = self.entries.get(finding.fingerprint, {})
            records[finding.fingerprint] = {
                "fingerprint": finding.fingerprint,
                "checker_id": finding.checker_id,
                "path": finding.path,
                "function": finding.function,
                "message": finding.message,
                "justification": previous.get("justification", _TODO),
            }
        ordered = sorted(
            records.values(),
            key=lambda e: tuple(
                e.get(k, "") for k in ("path", "function", "checker_id", "fingerprint")
            ),
        )
        return {"version": BASELINE_VERSION, "findings": ordered}

    def write(self, document: dict) -> None:
        assert self.path is not None
        self.path.write_text(
            json.dumps(document, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )
