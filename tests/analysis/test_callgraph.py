"""Call-graph edge cases: decorators, nesting, dispatch, import cycles."""

from repro.analysis.project import UNKNOWN

from tests.analysis.conftest import build_index


def targets_of(index, caller, line=None):
    out = set()
    for target, at_line in index.successors(caller):
        if line is None or at_line == line:
            out.add(target)
    return out


class TestDecoratedFunctions:
    def test_decorated_function_keeps_its_qualname_and_edges(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/deco.py": """
                    def cached(fn):
                        return fn

                    @cached
                    def compute(x):
                        return helper(x)

                    def helper(x):
                        return x + 1

                    def entry(x):
                        return compute(x)
                    """
            },
        )
        assert "repro.deco.compute" in index.functions
        assert index.functions["repro.deco.compute"].decorators == ("cached",)
        assert "repro.deco.compute" in targets_of(index, "repro.deco.entry")
        assert "repro.deco.helper" in targets_of(index, "repro.deco.compute")

    def test_call_inside_decorator_expression_is_an_edge(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/deco.py": """
                    def make_decorator(tag):
                        def wrap(fn):
                            return fn
                        return wrap

                    @make_decorator("hot")
                    def compute(x):
                        return x
                    """
            },
        )
        # The decorator call runs at import time: it belongs to the
        # module pseudo-function, not to ``compute``.
        assert "repro.deco.make_decorator" in targets_of(index, "repro.deco.<module>")


class TestNestedFunctionsAndLambdas:
    def test_nested_function_gets_locals_qualname(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/nest.py": """
                    def outer(xs):
                        def inner(x):
                            return x * 2
                        return [inner(x) for x in xs]
                    """
            },
        )
        assert "repro.nest.outer.<locals>.inner" in index.functions
        assert "repro.nest.outer.<locals>.inner" in targets_of(index, "repro.nest.outer")

    def test_lambda_is_indexed_and_linked_from_enclosing_scope(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/lam.py": """
                    def ranked(rows):
                        key = lambda row: row.score
                        return sorted(rows, key=key)
                    """
            },
        )
        lambdas = [q for q in index.functions if "<lambda" in q]
        assert len(lambdas) == 1
        assert lambdas[0].startswith("repro.lam.ranked.<lambda ")
        # The reference flows into sorted(key=...), so the lambda is a
        # successor of ``ranked`` even though it is never called directly.
        assert lambdas[0] in targets_of(index, "repro.lam.ranked")


class TestMethodResolution:
    SOURCE = {
        "repro/cls.py": """
            class Base:
                def helper(self):
                    return 1

            class Derived(Base):
                def run(self):
                    return self.helper()

            class Other:
                def process(self):
                    return 2

            class Peer:
                def process(self):
                    return 3

            def dispatch(obj):
                return obj.process()
            """
    }

    def test_self_call_resolves_through_the_mro(self, tmp_path):
        index = build_index(tmp_path, self.SOURCE)
        (resolved,) = index.resolved_calls("repro.cls.Derived.run")
        assert resolved.targets == ("repro.cls.Base.helper",)
        assert not resolved.unknown

    def test_dynamic_dispatch_keeps_all_candidates_plus_unknown(self, tmp_path):
        index = build_index(tmp_path, self.SOURCE)
        (resolved,) = index.resolved_calls("repro.cls.dispatch")
        assert set(resolved.targets) == {
            "repro.cls.Other.process",
            "repro.cls.Peer.process",
        }
        assert resolved.unknown
        assert UNKNOWN in targets_of(index, "repro.cls.dispatch")

    def test_fresh_local_receiver_is_not_name_matched(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/fresh.py": """
                    class Store:
                        def append(self, row):
                            self.rows += [row]

                    def collect(xs):
                        out = []
                        for x in xs:
                            out.append(x)
                        return out
                    """
            },
        )
        # ``out`` is a fresh list: its ``.append`` must not resolve to
        # ``Store.append`` just because the names coincide.
        assert "repro.fresh.Store.append" not in targets_of(index, "repro.fresh.collect")


class TestImportCycles:
    CYCLE = {
        "repro/a.py": """
            from repro import b

            def ping(n):
                if n <= 0:
                    return 0
                return b.pong(n - 1)
            """,
        "repro/b.py": """
            from repro import a

            def pong(n):
                return a.ping(n)
            """,
    }

    def test_cyclic_modules_resolve_each_other(self, tmp_path):
        index = build_index(tmp_path, self.CYCLE)
        assert "repro.b.pong" in targets_of(index, "repro.a.ping")
        assert "repro.a.ping" in targets_of(index, "repro.b.pong")

    def test_reachability_terminates_on_cycles(self, tmp_path):
        index = build_index(tmp_path, self.CYCLE)
        chains = index.reachable(["repro.a.ping"])
        assert set(chains) == {"repro.a.ping", "repro.b.pong"}
        assert chains["repro.b.pong"] == ("repro.a.ping", "repro.b.pong")

    def test_reexport_alias_chases_to_definition(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/pkg/__init__.py": "from repro.pkg.impl import work\n",
                "repro/pkg/impl.py": """
                    def work(x):
                        return x
                    """,
                "repro/use.py": """
                    from repro import pkg

                    def go(x):
                        return pkg.work(x)
                    """,
            },
        )
        assert index.canonical("repro.pkg.work") == "repro.pkg.impl.work"
        assert "repro.pkg.impl.work" in targets_of(index, "repro.use.go")


class TestWorkerEntries:
    """A function handed to an external callee (a pool's ``map``, a fold)
    is an edge: the callee may invoke it."""

    def test_function_reference_through_module_attribute(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/par.py": """
                    def work(item):
                        return item

                    def run(pool, items):
                        return pool.map(work, items)
                    """,
                "repro/drv.py": """
                    from repro import par

                    def drive(pool, items):
                        return pool.map(par.work, items)
                    """,
            },
        )
        assert "repro.par.work" in targets_of(index, "repro.par.run")
        assert "repro.par.work" in targets_of(index, "repro.drv.drive")

    def test_callback_passed_to_external_call_is_an_edge(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "repro/cb.py": """
                    import functools

                    def combine(a, b):
                        return a + b

                    def total(xs):
                        return functools.reduce(combine, xs, 0)
                    """
            },
        )
        assert "repro.cb.combine" in targets_of(index, "repro.cb.total")
