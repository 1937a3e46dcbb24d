"""Integration: the analyzer holds over the entire ``src/repro`` tree.

This is the enforcement test: any future change that leaks an identity
into a sink, draws ambient randomness/time, or crosses the client/server
boundary fails the tier-1 suite here with the precise rule and location.
"""

from pathlib import Path

import pytest

import repro
from repro.lint import Analyzer, default_rules
from repro.lint.cli import main as lint_main

SRC_REPRO = Path(repro.__file__).parent


def test_source_tree_location_sanity():
    assert (SRC_REPRO / "lint" / "engine.py").exists()
    assert (SRC_REPRO / "service" / "server.py").exists()


def test_whole_tree_has_zero_violations():
    result = Analyzer(default_rules()).run([SRC_REPRO])
    rendered = "\n".join(v.render() for v in result.sorted_violations())
    assert result.ok, f"repro.lint violations in src/repro:\n{rendered}"
    assert result.n_files > 70  # the whole tree, not an accidental subset


def test_every_waiver_is_a_known_audited_exception():
    """Suppressions are load-bearing documentation: each one must sit in a
    sanctioned touchpoint — the server's identity edges (token
    issuance and explicit-review posting), the journal's wall-clock
    snapshot timer, the soak harness's throughput/latency stopwatch, or
    the serving layer's query-latency stopwatch (all observability-only:
    the readings land in DEPLOYMENT scope, never in a report or an
    invariant digest)."""
    result = Analyzer(default_rules()).run([SRC_REPRO])
    by_file = {}
    for violation in result.suppressed:
        if violation.rule_id == "priv-server-identity":
            assert violation.path.endswith("service/server.py")
        else:
            assert violation.rule_id == "det-wall-clock"
            assert violation.path.endswith(
                ("durability/journal.py", "ingest/soak.py", "serve/facade.py")
            )
        by_file[violation.path] = by_file.get(violation.path, 0) + 1
    # The server's three identity touchpoints, the journal's two
    # perf_counter reads around the snapshot write, the soak harness's
    # single stopwatch read, and the serving layer's two perf_counter
    # reads around a query.
    assert sorted(by_file.values()) == [1, 2, 2, 3]


def test_cli_exits_zero_on_the_tree(capsys):
    assert lint_main([str(SRC_REPRO)]) == 0
    assert "no violations" in capsys.readouterr().out


@pytest.mark.parametrize("subpackage", ["client", "sensing", "service", "world"])
def test_each_layer_is_individually_clean(subpackage):
    result = Analyzer(default_rules()).run([SRC_REPRO / subpackage])
    assert result.ok
