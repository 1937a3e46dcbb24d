"""File-digest-keyed incremental cache for per-file facts.

Extraction (parse + local dataflow) dominates a cold analysis run; the
whole-program phases (index, summaries, checkers) are cheap by
comparison.  Facts are *local* — they mention other modules only through
symbolic callee references that :class:`~repro.analysis.project.ProjectIndex`
resolves at load time — so a file's cached facts stay valid as long as
the file's bytes and the analyzer config are unchanged, no matter what
happened elsewhere in the tree.

Cache layout (one JSON document)::

    {"version": 3,
     "config": "<AnalysisConfig.fingerprint()>",
     "files": {"<path>": {"digest": "<sha256>", "facts": {...}}},
     "program": {"key": "<sha256 over every file digest>",
                 "findings": [...], "suppressed": [...],
                 "dead_waivers": [...]}}

Two levels.  The ``files`` map reuses per-file facts as long as the
file's bytes are unchanged — a warm run with *some* edits re-extracts
only the edited files and re-runs the whole-program phases on the mixed
facts.  Per-file facts include every per-file rule's findings.  The
``program`` entry short-circuits further: when *no* file changed, the
output of every rule and checker is a pure function of (config, file bytes),
so the previous findings are replayed without building the index or the
summaries at all.  A version or config mismatch drops the whole cache; a
stale per-file digest drops just that entry.  Corrupt cache files are
treated as absent — the cache is an accelerator, never a correctness
input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.config import AnalysisConfig
from repro.analysis.facts import ModuleFacts, extract
from repro.analysis.source import Finding, parse_error, parse_module

CACHE_VERSION = 3


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class FactLoader:
    """Loads facts for a file list, consulting and refreshing the cache."""

    config: AnalysisConfig
    cache_path: Path | None = None
    hits: int = 0
    misses: int = 0
    _entries: dict[str, dict] = field(default_factory=dict)
    _program: dict | None = None

    def __post_init__(self) -> None:
        if self.cache_path is None:
            return
        try:
            raw = json.loads(Path(self.cache_path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            isinstance(raw, dict)
            and raw.get("version") == CACHE_VERSION
            and raw.get("config") == self.config.fingerprint()
            and isinstance(raw.get("files"), dict)
        ):
            self._entries = raw["files"]
            if isinstance(raw.get("program"), dict):
                self._program = raw["program"]

    def cached_program(self, key: str) -> dict | None:
        """Replayable checker output for an unchanged file set, if any."""
        if self._program is not None and self._program.get("key") == key:
            return self._program
        return None

    def store_program(self, key: str, payload: dict) -> None:
        self._program = {"key": key, **payload}

    def load(self, path: Path, digest: str | None = None) -> ModuleFacts | Finding:
        key = str(path)
        try:
            if digest is None:
                digest = file_digest(path)
        except OSError as exc:
            return parse_error(path, exc)
        cached = self._entries.get(key)
        if cached is not None and cached.get("digest") == digest:
            try:
                facts = ModuleFacts.from_dict(cached["facts"])
            except (KeyError, TypeError, ValueError):
                pass  # schema drift: fall through to re-extraction
            else:
                self.hits += 1
                return facts
        parsed = parse_module(path)
        if isinstance(parsed, Finding):
            self._entries.pop(key, None)
            return parsed
        facts = extract(parsed, self.config, digest)
        self._entries[key] = {"digest": digest, "facts": facts.to_dict()}
        self.misses += 1
        return facts

    def save(self) -> None:
        if self.cache_path is None:
            return
        document = {
            "version": CACHE_VERSION,
            "config": self.config.fingerprint(),
            "files": {key: self._entries[key] for key in sorted(self._entries)},
        }
        if self._program is not None:
            document["program"] = self._program
        try:
            Path(self.cache_path).write_text(
                json.dumps(document, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass  # read-only checkout: run uncached rather than fail
