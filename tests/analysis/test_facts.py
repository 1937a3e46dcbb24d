"""Per-file extraction: atoms, sanitizers, destructuring, serialization."""

import hashlib

from repro.analysis import AnalysisConfig, extract
from repro.analysis.facts import ModuleFacts
from repro.analysis.source import Finding, parse_module

from tests.analysis.conftest import build_index, write_project


def extract_one(tmp_path, source, name="repro/mod.py", config=None):
    config = config or AnalysisConfig()
    root = write_project(tmp_path, {name: source})
    path = root / name
    parsed = parse_module(path)
    assert not isinstance(parsed, Finding), parsed
    return extract(parsed, config, hashlib.sha256(path.read_bytes()).hexdigest())


def sink_sources(facts, qualname):
    return [
        (sink.name, sorted(a[1] for a in sink.atoms if a[0] == "source"))
        for sink in facts.functions[qualname].sinks
    ]


class TestAtoms:
    def test_sanitizer_call_clears_taint(self, tmp_path):
        facts = extract_one(
            tmp_path,
            """
            def build(record):
                return OpinionUpload(history_id(record.user_id))
            """,
        )
        # An untaintable value position is not even recorded as a sink.
        assert sink_sources(facts, "repro.mod.build") == []

    def test_identity_attribute_is_a_source_atom(self, tmp_path):
        facts = extract_one(
            tmp_path,
            """
            def build(record):
                return OpinionUpload(record.user_id)
            """,
        )
        assert sink_sources(facts, "repro.mod.build") == [
            ("OpinionUpload", ["user_id"])
        ]

    def test_subscript_drops_the_key_taint(self, tmp_path):
        facts = extract_one(
            tmp_path,
            """
            def build(table, record):
                return OpinionUpload(table[record.user_id])
            """,
        )
        # The *key* is identity but the looked-up value is not; the only
        # remaining atom is the table param itself.
        assert sink_sources(facts, "repro.mod.build") in ([], [("OpinionUpload", [])])
        sinks = facts.functions["repro.mod.build"].sinks
        assert not any(
            atom == ("source", "user_id") for sink in sinks for atom in sink.atoms
        )

    def test_tuple_unpacking_is_positional(self, tmp_path):
        facts = extract_one(
            tmp_path,
            """
            def build(record):
                clean, dirty = "const", record.user_id
                return OpinionUpload(clean), Envelope(dirty)
            """,
        )
        sources = dict(sink_sources(facts, "repro.mod.build"))
        assert sources.get("Envelope") == ["user_id"]
        assert sources.get("OpinionUpload", []) == []

    def test_comprehension_variables_do_not_become_globals(self, tmp_path):
        facts = extract_one(
            tmp_path,
            """
            def squares(xs):
                return [square(x) for x in xs]
            """,
        )
        # Call-site arguments are read without the comprehension's
        # overlay, so the target must be a bound local there too.
        (site,) = facts.functions["repro.mod.squares"].calls
        assert site.args == (frozenset({("param", 0)}),)


class TestModuleFacts:
    def test_imports_map_tracks_aliases(self, tmp_path):
        facts = extract_one(
            tmp_path,
            """
            from repro.scale import merge as m
            import repro.util.clock
            """,
        )
        assert facts.imports["m"] == "repro.scale.merge"

    def test_round_trips_through_json_dict(self, tmp_path):
        facts = extract_one(
            tmp_path,
            """
            import time

            _STATE = {}


            class Box:
                def put(self, k, v):
                    _STATE[k] = v


            def export(box):
                names = {n for n in box}
                for n in names:
                    box.put(n, time.time())
            """,
        )
        rebuilt = ModuleFacts.from_dict(facts.to_dict())
        assert rebuilt.to_dict() == facts.to_dict()
        assert set(rebuilt.functions) == set(facts.functions)

    def test_suppression_comment_is_carried(self, tmp_path):
        facts = extract_one(
            tmp_path,
            """
            def f():
                return g()  # repro: allow[interproc-privacy-taint]
            """,
        )
        assert facts.suppressed("interproc-privacy-taint", 3)
        assert not facts.suppressed("determinism-reachability", 3)


class TestExtractionEquivalence:
    def test_index_from_cached_facts_matches_fresh(self, tmp_path):
        files = {
            "repro/x.py": """
                _LOG = []

                def note(msg):
                    _LOG.append(msg)

                def run(items):
                    for item in items:
                        note(item)
                """
        }
        fresh = build_index(tmp_path / "a", files)
        config = AnalysisConfig()
        cached_facts = [
            ModuleFacts.from_dict(facts.to_dict()) for facts in fresh.modules.values()
        ]
        from repro.analysis import ProjectIndex

        cached = ProjectIndex.build(config, cached_facts)
        assert set(cached.functions) == set(fresh.functions)
        for qualname in fresh.functions:
            assert cached.successors(qualname) == fresh.successors(qualname)
