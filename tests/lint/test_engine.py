"""Engine mechanics: module naming, waivers, file walking, parse errors."""

from repro.analysis import WholeProgramAnalyzer
from repro.analysis.cli import main
from repro.analysis.source import (
    PARSE_ERROR_RULE_ID,
    collect_suppressions,
    iter_python_files,
    module_name_for,
)

from tests.lint.conftest import FIXTURE_ROOT, lint


class TestModuleNames:
    def test_walks_up_package_tree(self):
        path = FIXTURE_ROOT / "world" / "bad_random.py"
        assert module_name_for(path) == "repro.world.bad_random"

    def test_init_names_the_package_itself(self):
        assert module_name_for(FIXTURE_ROOT / "world" / "__init__.py") == "repro.world"

    def test_file_outside_any_package_is_its_own_module(self, tmp_path):
        loose = tmp_path / "loose.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) == "loose"


class TestSuppressionParsing:
    def test_line_suppression_single_id(self):
        per_line, whole = collect_suppressions(
            "import random  # repro: allow[det-random-module] — why\n"
        )
        assert per_line == {1: frozenset({"det-random-module"})}
        assert whole == frozenset()

    def test_line_suppression_multiple_ids(self):
        per_line, _ = collect_suppressions(
            "x = f(user_id)  # repro: allow[priv-taint-sink, det-random-module]\n"
        )
        assert per_line[1] == {"priv-taint-sink", "det-random-module"}

    def test_file_suppression(self):
        _, whole = collect_suppressions(
            "# repro: allow-file[layer-service-client] — fixture\nimport os\n"
        )
        assert whole == frozenset({"layer-service-client"})

    def test_plain_comments_are_not_suppressions(self):
        per_line, whole = collect_suppressions("# just a comment\nx = 1  # another\n")
        assert per_line == {} and whole == frozenset()


class TestSuppressionApplication:
    def test_inline_suppression_moves_violation_aside(self, lint_paths):
        result = lint_paths("world/suppressed_random.py")
        assert result.ok
        assert {f.checker_id for f in result.suppressed} == {"det-random-module"}

    def test_file_level_suppression_covers_every_line(self, lint_paths):
        result = lint_paths("service/suppressed_service.py")
        assert result.ok
        suppressed_ids = {f.checker_id for f in result.suppressed}
        assert "layer-service-client" in suppressed_ids
        assert "priv-server-identity" in suppressed_ids

    def test_suppression_does_not_hide_other_rules(self, tmp_path):
        # An allow[] for one rule must not waive a different rule on the line.
        source = "import random  # repro: allow[det-wall-clock]\n"
        bad = tmp_path / "mod.py"
        bad.write_text(source)
        result = lint([bad])
        assert [f.checker_id for f in result.findings] == ["det-random-module"]

    def test_waiver_that_suppresses_nothing_fails_the_run(self, tmp_path, capsys):
        dead = tmp_path / "mod.py"
        dead.write_text(
            "x = 1  # repro: allow[det-wall-clock]\n"
            "y = 2  # repro: allow[no-such-rule] — not a rule id: prose, not a waiver\n"
        )
        result = lint([dead])
        assert not result.findings and not result.ok
        [waiver] = result.dead_waivers
        assert (waiver.checker_id, waiver.line) == ("det-wall-clock", 1)
        # Judged only when its rule is selected, like a baseline entry.
        assert WholeProgramAnalyzer(select={"det-random-module"}).run([dead]).ok
        assert main([str(dead)]) == 1
        assert "stale inline waiver" in capsys.readouterr().out


class TestFileWalking:
    def test_directories_expand_recursively_and_dedupe(self):
        world = FIXTURE_ROOT / "world"
        twice = list(iter_python_files([world, world / "bad_random.py"]))
        names = [path.name for path in twice]
        assert names.count("bad_random.py") == 1
        assert "bad_numpy.py" in names

    def test_hidden_directories_are_skipped(self, tmp_path):
        hidden = tmp_path / ".cache"
        hidden.mkdir()
        (hidden / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        names = [path.name for path in iter_python_files([tmp_path])]
        assert names == ["real.py"]


class TestParseErrors:
    def test_unparseable_file_is_a_violation_not_a_crash(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        result = lint([broken])
        assert not result.ok
        [error] = result.parse_errors
        assert error.checker_id == PARSE_ERROR_RULE_ID
        assert str(broken) == error.path


class TestCleanFixtures:
    def test_good_fixtures_produce_no_findings(self, lint_paths):
        result = lint_paths(
            "world/good_rng.py",
            "client/good_client.py",
            "client/good_upload.py",
            "service/good_service.py",
        )
        assert result.ok
        assert result.suppressed == []
        assert result.n_files == 4
