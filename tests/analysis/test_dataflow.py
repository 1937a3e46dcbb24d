"""Interprocedural summaries: returns and taint propagation."""

from repro.analysis import ReturnSummaries, TaintPropagator

from tests.analysis.conftest import build_index


def summaries_for(tmp_path, files):
    index = build_index(tmp_path, files)
    return index, ReturnSummaries(index)


class TestReturnSummaries:
    def test_identity_survives_a_helper_chain(self, tmp_path):
        _, returns = summaries_for(
            tmp_path,
            {
                "repro/m.py": """
                    def a(record):
                        return record.user_id

                    def b(record):
                        return a(record)

                    def c(record):
                        return b(record)
                    """
            },
        )
        assert ("source", "user_id") in returns.summaries["repro.m.c"].atoms

    def test_recursion_terminates(self, tmp_path):
        _, returns = summaries_for(
            tmp_path,
            {
                "repro/m.py": """
                    def walk(node):
                        if node.leaf:
                            return node.user_id
                        return walk(node.child)
                    """
            },
        )
        assert ("source", "user_id") in returns.summaries["repro.m.walk"].atoms


class TestTaintPropagator:
    def run_taint(self, tmp_path, files):
        index, returns = summaries_for(tmp_path, files)
        hits = []

        def on_hit(facts, sink, sources, chain):
            hits.append((facts.qualname, sink.name, tuple(sorted(sources)), chain))

        TaintPropagator(index, returns).run(on_hit)
        return hits

    def test_taint_crosses_a_call_edge_into_a_sink(self, tmp_path):
        hits = self.run_taint(
            tmp_path,
            {
                "repro/m.py": """
                    def send(payload):
                        return Envelope(payload)

                    def sync(record):
                        return send(record.device_id)
                    """
            },
        )
        assert (
            "repro.m.send",
            "Envelope",
            ("device_id",),
            ("repro.m.sync", "repro.m.send"),
        ) in hits

    def test_sanitized_argument_does_not_propagate(self, tmp_path):
        hits = self.run_taint(
            tmp_path,
            {
                "repro/m.py": """
                    def send(payload):
                        return Envelope(payload)

                    def sync(record):
                        return send(history_id(record.device_id))
                    """
            },
        )
        assert hits == []

    def test_mutual_recursion_with_taint_terminates(self, tmp_path):
        hits = self.run_taint(
            tmp_path,
            {
                "repro/m.py": """
                    def even(x, n):
                        if n <= 0:
                            return Envelope(x)
                        return odd(x, n - 1)

                    def odd(x, n):
                        return even(x, n - 1)

                    def start(record):
                        return even(record.user_id, 5)
                    """
            },
        )
        assert any(name == "Envelope" and sources == ("user_id",) for _, name, sources, _ in hits)
