"""Source files and findings: discovery, parsing, module naming, waivers.

Every target file is parsed once with :mod:`ast`; its dotted module name
is derived from the surrounding package tree and its inline waivers are
collected from comments:

* ``# repro: allow[rule-id]`` — suppress one or more comma-separated
  rule ids on this line;
* ``# repro: allow-file[rule-id]`` — suppress the listed rules for the
  whole file (put it near the top, with a comment saying why).

A waived finding is kept as *suppressed* so reporters can audit what
was waived, and a waiver that suppresses nothing fails the run.
"""

from __future__ import annotations

import ast
import hashlib
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

_ALLOW_LINE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-, ]+)\]")
_ALLOW_FILE = re.compile(r"#\s*repro:\s*allow-file\[([A-Za-z0-9_\-, ]+)\]")

#: Rule id reported when a target file does not parse at all.
PARSE_ERROR_RULE_ID = "parse-error"


@dataclass(frozen=True)
class Finding:
    """One rule violated at a position in a file."""

    checker_id: str
    path: str
    line: int
    col: int
    function: str  # qualname (or module) the finding is attributed to
    message: str
    chain: tuple[str, ...] = ()
    #: short detail string the fingerprint is built from
    detail: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-independent identity (checker, file, function, detail),
        which is what the baseline keys on: moving code around does not
        churn the baseline, changing behaviour does."""
        payload = "|".join([self.checker_id, self.path, self.function, self.detail])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.checker_id, self.message)

    def render(self, tag: str = "") -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.checker_id} {self.message}{tag}"

    def to_dict(self) -> dict:
        return {
            "checker_id": self.checker_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "function": self.function,
            "message": self.message,
            "chain": list(self.chain),
            "detail": self.detail,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Finding":
        return cls(
            checker_id=raw["checker_id"],
            path=raw["path"],
            line=raw["line"],
            col=raw["col"],
            function=raw["function"],
            message=raw["message"],
            chain=tuple(raw.get("chain", ())),
            detail=raw.get("detail", ""),
        )


@dataclass(frozen=True)
class ParsedModule:
    """A parsed source file plus the metadata extraction needs."""

    path: str
    module: str
    tree: ast.Module
    line_suppressions: dict[int, frozenset[str]]
    file_suppressions: frozenset[str]

    def in_package(self, prefixes: Iterable[str]) -> bool:
        """True when this module lives under any of the dotted ``prefixes``."""
        return in_package(self.module, prefixes)


def in_package(dotted: str, prefixes: Iterable[str]) -> bool:
    """True when ``dotted`` is one of ``prefixes`` or lives under one."""
    return any(dotted == prefix or dotted.startswith(prefix + ".") for prefix in prefixes)


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, derived from ``__init__.py`` markers.

    Walks upward while the containing directory is a package, so
    ``src/repro/world/behavior.py`` → ``repro.world.behavior`` without any
    knowledge of ``src`` layouts.  A stray file outside any package is its
    own single-segment module.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


def _split_ids(raw: str) -> frozenset[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def collect_suppressions(source: str) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Map line number → suppressed rule ids, plus whole-file suppressions."""
    per_line: dict[int, frozenset[str]] = {}
    whole_file: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "#" not in text:
            continue
        file_match = _ALLOW_FILE.search(text)
        if file_match:
            whole_file.update(_split_ids(file_match.group(1)))
            continue
        line_match = _ALLOW_LINE.search(text)
        if line_match:
            per_line[lineno] = per_line.get(lineno, frozenset()) | _split_ids(
                line_match.group(1)
            )
    return per_line, frozenset(whole_file)


def parse_error(path: Path | str, exc: Exception, line: int = 1) -> Finding:
    return Finding(
        checker_id=PARSE_ERROR_RULE_ID,
        path=str(path),
        line=line,
        col=0,
        function="",
        message=f"could not parse file: {exc.__class__.__name__}: {exc}",
    )


def parse_module(path: Path) -> ParsedModule | Finding:
    """Parse one file; returns a parse-error Finding instead of raising."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        return parse_error(path, exc, getattr(exc, "lineno", 1) or 1)
    per_line, whole_file = collect_suppressions(source)
    return ParsedModule(
        path=str(path),
        module=module_name_for(path),
        tree=tree,
        line_suppressions=per_line,
        file_suppressions=whole_file,
    )


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: set[Path] = set()
    for raw in paths:
        base = Path(raw)
        if base.is_dir():
            candidates = sorted(
                p
                for p in base.rglob("*.py")
                if not any(part.startswith(".") for part in p.parts)
            )
        else:
            candidates = [base]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate
