"""Integration: the per-file rules hold over the entire ``src/repro`` tree.

This is the enforcement test: any future change that leaks an identity
into a sink, draws ambient randomness/time, or crosses the client/server
boundary fails the tier-1 suite here with the precise rule and location.
Every assertion reads the one shared analyzer pass (``self_analysis``).
"""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import main

from tests.conftest import BASELINE, REPO_ROOT

SRC_REPRO = Path(repro.__file__).parent


@pytest.fixture(scope="module")
def self_result(self_analysis):
    return self_analysis[0]


def test_source_tree_location_sanity():
    assert (SRC_REPRO / "analysis" / "rules.py").exists()
    assert (SRC_REPRO / "service" / "server.py").exists()
    assert not (SRC_REPRO / "lint").exists()  # one analyzer, not two


def test_whole_tree_has_zero_violations(self_result):
    rendered = "\n".join(f.render() for f in self_result.findings)
    assert self_result.ok, f"analyzer findings in src/repro:\n{rendered}"
    assert self_result.n_files > 100  # the whole tree, not an accidental subset


def test_every_waiver_is_a_known_audited_exception(self_result):
    """Suppressions are load-bearing documentation: each one must sit in a
    sanctioned touchpoint — the server's identity edges (token
    issuance and explicit-review posting), the journal's wall-clock
    snapshot timer, or the serving layer's query-latency stopwatch (all
    observability-only: the readings land in DEPLOYMENT scope, never in a
    report or an invariant digest)."""
    by_file = {}
    for finding in self_result.suppressed:
        if finding.checker_id == "priv-server-identity":
            assert finding.path.endswith("service/server.py")
        else:
            assert finding.checker_id == "det-wall-clock"
            assert finding.path.endswith(("durability/journal.py", "serve/facade.py"))
        by_file[finding.path] = by_file.get(finding.path, 0) + 1
    # The server's three identity touchpoints, the journal's two
    # perf_counter reads around the snapshot write, and the serving
    # layer's two perf_counter reads around a query.
    assert sorted(by_file.values()) == [2, 2, 3]


def test_cli_exits_zero_on_the_tree(self_analysis, capsys, monkeypatch):
    result, cache = self_analysis
    monkeypatch.chdir(REPO_ROOT)
    argv = ["src/repro", "--baseline", str(BASELINE), "--cache", str(cache)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # The CLI replays the shared pass from its cache: same tree, same answer.
    assert f"OK: {result.n_files} file(s) analyzed, {result.n_files} from cache" in out


@pytest.mark.parametrize("subpackage", ["client", "sensing", "service", "world"])
def test_each_layer_is_individually_clean(self_analysis, subpackage):
    result, cache = self_analysis
    prefix = f"src/repro/{subpackage}/"
    analyzed = [path for path in json.loads(cache.read_text())["files"] if path.startswith(prefix)]
    assert analyzed, f"no file under {prefix} was analyzed"
    unwaived = result.findings + result.dead_waivers
    assert not [f.render() for f in unwaived if f.path.startswith(prefix)]
