#!/usr/bin/env bash
# Full verification gate: invariant analyzer -> generic lint -> tier-1 tests.
# CI and `make check` both run this; each stage fails the whole script.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro analyze (privacy / determinism / layering invariants) =="
python -m repro.analysis src/repro --baseline analysis_baseline.json

echo
echo "== ruff check (generic hygiene) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check .
else
    echo "ruff not installed (pip install -e '.[dev]'); skipping generic lint"
fi

echo
echo "== tier-1 tests =="
python -m pytest -x -q
