"""Determinism rule family: one failing and one passing case per rule."""

from repro.analysis import AnalysisConfig

from tests.lint.conftest import lint, rule_ids


class TestRandomModule:
    def test_flags_import_and_call(self, lint_paths):
        result = lint_paths("world/bad_random.py")
        ids = rule_ids(result)
        assert ids.count("det-random-module") == 2  # the import and the call
        lines = sorted(v.line for v in result.findings)
        assert lines == [3, 7]

    def test_allowed_module_is_exempt(self, fixture_root, tmp_path):
        # The same source is legal when it *is* the sanctioned rng module.
        source = (fixture_root / "world" / "bad_random.py").read_text()
        exempt = tmp_path / "rng.py"
        exempt.write_text(source)
        config = AnalysisConfig(rng_modules=frozenset({"rng"}))
        result = lint([exempt], config)
        assert "det-random-module" not in rule_ids(result)


class TestWallClock:
    def test_flags_time_and_datetime_reads(self, lint_paths):
        result = lint_paths("world/bad_wall_clock.py")
        ids = rule_ids(result)
        assert ids.count("det-wall-clock") == 2
        messages = " ".join(v.message for v in result.findings)
        assert "time.time" in messages
        assert "datetime.datetime.now" in messages

    def test_simulated_clock_module_is_exempt(self, fixture_root, tmp_path):
        source = (fixture_root / "world" / "bad_wall_clock.py").read_text()
        exempt = tmp_path / "clock.py"
        exempt.write_text(source)
        config = AnalysisConfig(clock_modules=frozenset({"clock"}))
        result = lint([exempt], config)
        assert "det-wall-clock" not in rule_ids(result)


class TestNumpyRandom:
    def test_flags_unseeded_default_rng_and_legacy_api(self, lint_paths):
        result = lint_paths("world/bad_numpy.py")
        ids = rule_ids(result)
        assert ids.count("det-numpy-random") == 2
        messages = " ".join(v.message for v in result.findings)
        assert "numpy.random.default_rng" in messages
        assert "numpy.random.rand" in messages

    def test_seeded_generators_via_util_rng_pass(self, lint_paths):
        result = lint_paths("world/good_rng.py")
        assert result.ok

    def test_generator_annotations_are_not_calls(self, lint_paths):
        # good_rng.py uses np.random.Generator in annotations and
        # isinstance checks; neither may trip the rule.
        result = lint_paths("world/good_rng.py")
        assert "det-numpy-random" not in rule_ids(result)


class TestDirtyIteration:
    def test_flags_bare_loop_and_comprehension(self, lint_paths):
        result = lint_paths("service/bad_dirty_iteration.py")
        ids = rule_ids(result)
        assert ids.count("det-dirty-iteration") == 2
        messages = " ".join(v.message for v in result.findings)
        assert "dirty_entities" in messages
        assert "sorted()" in messages

    def test_sorted_iteration_passes(self, lint_paths):
        result = lint_paths("service/good_dirty_iteration.py")
        assert "det-dirty-iteration" not in rule_ids(result)

    def test_rule_only_applies_to_service_packages(self, fixture_root, tmp_path):
        # The same hash-order loop is legal outside repro.service/repro.scale
        # (e.g. in the harness, where nothing float-sensitive consumes it).
        source = (fixture_root / "service" / "bad_dirty_iteration.py").read_text()
        outside = tmp_path / "harness.py"
        outside.write_text(source)
        result = lint([outside])
        assert "det-dirty-iteration" not in rule_ids(result)


class TestReadPath:
    def test_flags_raw_accessors_and_bare_candidates(self, lint_paths):
        result = lint_paths("serve/bad_read_path.py")
        ids = rule_ids(result)
        # Two raw store-view accessor iterations plus one bare
        # candidate-collection comprehension.
        assert ids.count("det-read-path") == 3
        messages = " ".join(v.message for v in result.findings)
        assert "entities_with_histories()" in messages
        assert "review_entities()" in messages
        assert "candidate_ids" in messages

    def test_sorted_materializations_pass(self, lint_paths):
        result = lint_paths("serve/good_read_path.py")
        assert "det-read-path" not in rule_ids(result)

    def test_rule_only_applies_to_service_packages(self, fixture_root, tmp_path):
        # The same loops are legal outside repro.service/scale/serve —
        # e.g. a test helper folding sets into order-insensitive counts.
        source = (fixture_root / "serve" / "bad_read_path.py").read_text()
        outside = tmp_path / "helper.py"
        outside.write_text(source)
        result = lint([outside])
        assert "det-read-path" not in rule_ids(result)

    def test_ordered_index_calls_are_exempt(self, lint_paths):
        # good_read_path.py iterates sorted(...) calls; a call expression
        # establishes explicit order and must never trip the rule.
        result = lint_paths("serve/good_read_path.py")
        assert result.ok
