"""docs/PAPER_MAP.md names only checks that exist.

Every backticked path in a table's "checked by" column must name a file
in the repository; a glob (``tests/sensing/*``) must match at least one
file; and a ``path::Name`` (or ``path::Class::method``) must name a
class or function defined in that file.  A renamed or deleted test then
fails here instead of leaving the map pointing at nothing.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAPER_MAP = ROOT / "docs" / "PAPER_MAP.md"


def checked_by_references() -> list[str]:
    """Backticked paths from every table's "checked by" column, in order."""
    references = []
    column = None
    for line in PAPER_MAP.read_text().splitlines():
        if not line.startswith("|"):
            column = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if column is None:
            column = cells.index("checked by") if "checked by" in cells else -1
            continue
        if column < 0 or set(cells[column]) <= set("-: "):
            continue
        references += [
            ref for ref in re.findall(r"`([^`]+)`", cells[column]) if "/" in ref
        ]
    return references


def defined(tree: ast.Module, names: list[str]) -> bool:
    """Whether ``names`` is a path of nested class/function definitions."""
    scope = tree.body
    for name in names:
        found = [
            node
            for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


REFERENCES = checked_by_references()


def test_the_map_has_checked_by_references():
    # The parser found the tables: a map with no references would pass
    # every check below vacuously.
    assert len(REFERENCES) > 30
    assert any("::" in ref for ref in REFERENCES)
    assert any("*" in ref for ref in REFERENCES)


@pytest.mark.parametrize("reference", sorted(set(REFERENCES)))
def test_checked_by_reference_exists(reference):
    path, *names = reference.split("::")
    if "*" in path:
        assert not names, reference
        assert any(p.is_file() for p in ROOT.glob(path)), f"{path} matches no file"
        return
    file = ROOT / path
    assert file.is_file(), f"{path} does not exist"
    if names:
        tree = ast.parse(file.read_text())
        assert defined(tree, names), f"{'::'.join(names)} is not defined in {path}"
