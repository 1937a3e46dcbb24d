"""Determinism rules: all entropy and time must flow through the seams.

The measurement study (Figure 1 / Table 1) and every attack benchmark are
only comparable across runs because each stochastic component draws from a
seeded, label-derived :class:`numpy.random.Generator` (``repro.util.rng``)
and observes simulated time (``repro.util.clock``).  A single stray
``random.random()`` or ``time.time()`` silently breaks replayability, so
these rules forbid the ambient sources outside the two sanctioned modules:

* ``det-random-module`` — the stdlib :mod:`random` module (global,
  process-wide state; ``random.seed`` calls in one component perturb
  another's stream);
* ``det-wall-clock`` — ``time.time``/``monotonic``/``perf_counter`` and
  ``datetime.now``/``utcnow``/``today`` (runs would depend on when they
  were launched);
* ``det-numpy-random`` — any direct ``numpy.random`` call, including
  ``default_rng``: generators must be built by ``repro.util.rng`` so that
  streams are derived by *label*, not call order.
* ``det-dirty-iteration`` — service-layer loops over dirty-entity sets
  must go through ``sorted()``: the incremental-maintenance caches feed
  float reductions, and Python sets iterate in hash order, so a bare
  iteration would make results depend on insertion history.
* ``det-read-path`` — the serving layer's candidate generation must not
  iterate raw store-view sets (``review_entities()``,
  ``entities_with_histories()``) or unsorted candidate/posting
  collections: hash order would leak shard layout into ranked output.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.lint.engine import LintConfig, ParsedModule, Rule, Violation

#: Call targets that read the wall clock, by fully resolved dotted path.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@dataclass
class ImportMap:
    """Local-name → dotted-origin bindings created by import statements."""

    #: ``import numpy as np`` → ``{"np": "numpy"}``
    modules: dict[str, str] = field(default_factory=dict)
    #: ``from time import time as now`` → ``{"now": "time.time"}``
    members: dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, tree: ast.Module) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds a.b.
                    imports.modules[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports.members[local] = f"{node.module}.{alias.name}"
        return imports

    def resolve_call_path(self, func: ast.expr) -> str | None:
        """Dotted origin of a call target, e.g. ``np.random.seed`` →
        ``numpy.random.seed``; None when the root is not an import."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.members.get(node.id) or self.modules.get(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(parts)]) if parts else root


def _matches(path: str, prefix: str) -> bool:
    return path == prefix or path.startswith(prefix + ".")


class _ImportScanningRule(Rule):
    """Shared machinery: walk imports and resolved calls once per module."""

    def allowed_in(self, config: LintConfig) -> frozenset[str]:
        raise NotImplementedError

    def check(self, module: ParsedModule, config: LintConfig) -> Iterator[Violation]:
        if module.module in self.allowed_in(config):
            return
        imports = ImportMap.of(module.tree)
        for node in ast.walk(module.tree):
            yield from self.check_node(module, node, imports)

    def check_node(
        self, module: ParsedModule, node: ast.AST, imports: ImportMap
    ) -> Iterator[Violation]:
        raise NotImplementedError


class RandomModuleRule(_ImportScanningRule):
    rule_id = "det-random-module"
    description = "stdlib `random` used outside repro.util.rng"
    rationale = (
        "stdlib random is process-global state; seeded numpy Generators from "
        "repro.util.rng keep every simulation stream label-derived and replayable"
    )

    def allowed_in(self, config: LintConfig) -> frozenset[str]:
        return config.rng_modules

    def check_node(
        self, module: ParsedModule, node: ast.AST, imports: ImportMap
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _matches(alias.name, "random"):
                    yield self.violation(
                        module,
                        node,
                        f"import of stdlib `{alias.name}`; draw from a seeded "
                        "Generator via repro.util.rng.make_rng instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and _matches(node.module, "random"):
                yield self.violation(
                    module,
                    node,
                    f"import from stdlib `{node.module}`; use repro.util.rng instead",
                )
        elif isinstance(node, ast.Call):
            path = imports.resolve_call_path(node.func)
            if path is not None and _matches(path, "random"):
                yield self.violation(
                    module,
                    node,
                    f"call to `{path}` uses the global stdlib RNG; thread a seeded "
                    "Generator from repro.util.rng through instead",
                )


class WallClockRule(_ImportScanningRule):
    rule_id = "det-wall-clock"
    description = "wall-clock time read outside repro.util.clock"
    rationale = (
        "all timestamps are simulated seconds on a SimClock; reading real time "
        "makes runs depend on when they were launched and breaks the timing-"
        "attack benchmarks"
    )

    def allowed_in(self, config: LintConfig) -> frozenset[str]:
        return config.clock_modules

    def check_node(
        self, module: ParsedModule, node: ast.AST, imports: ImportMap
    ) -> Iterator[Violation]:
        if not isinstance(node, ast.Call):
            return
        path = imports.resolve_call_path(node.func)
        if path in _WALL_CLOCK_CALLS:
            yield self.violation(
                module,
                node,
                f"call to `{path}` reads the wall clock; use the shared SimClock "
                "from repro.util.clock instead",
            )


class NumpyRandomRule(_ImportScanningRule):
    rule_id = "det-numpy-random"
    description = "direct numpy.random usage outside repro.util.rng"
    rationale = (
        "generators must be derived by label via repro.util.rng so adding a new "
        "consumer of randomness never perturbs existing streams"
    )

    def allowed_in(self, config: LintConfig) -> frozenset[str]:
        return config.rng_modules

    def check_node(
        self, module: ParsedModule, node: ast.AST, imports: ImportMap
    ) -> Iterator[Violation]:
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                if _matches(node.module, "numpy.random"):
                    yield self.violation(
                        module,
                        node,
                        "import from numpy.random; build generators with "
                        "repro.util.rng.make_rng instead",
                    )
                elif node.module == "numpy" and any(
                    alias.name == "random" for alias in node.names
                ):
                    yield self.violation(
                        module,
                        node,
                        "import of numpy.random; build generators with "
                        "repro.util.rng.make_rng instead",
                    )
        elif isinstance(node, ast.Call):
            path = imports.resolve_call_path(node.func)
            if path is not None and _matches(path, "numpy.random"):
                yield self.violation(
                    module,
                    node,
                    f"call to `{path}`; route all randomness through "
                    "repro.util.rng (make_rng/derive_seed/children)",
                )


def _terminal_name(expression: ast.expr) -> str | None:
    """The last identifier of a bare name or attribute chain, else None."""
    if isinstance(expression, ast.Name):
        return expression.id
    if isinstance(expression, ast.Attribute):
        return expression.attr
    return None


class DirtyIterationRule(Rule):
    """Service-layer iteration over a dirty set must be ``sorted()``."""

    rule_id = "det-dirty-iteration"
    description = "dirty-entity set iterated in hash order in service code"
    rationale = (
        "incremental maintenance drains dirty sets into float reductions; "
        "Python sets iterate in hash order, so an unsorted loop would make "
        "summaries depend on intake interleaving and break the byte-identity "
        "contract between incremental and full recompute"
    )

    def check(self, module: ParsedModule, config: LintConfig) -> Iterator[Violation]:
        if not module.in_package(config.service_packages):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                yield from self._check_iterable(module, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    yield from self._check_iterable(module, generator.iter)

    def _check_iterable(
        self, module: ParsedModule, iterable: ast.expr
    ) -> Iterator[Violation]:
        # A call wrapping the set (``sorted(...)`` in well-behaved code)
        # establishes an explicit order; a bare name or attribute whose
        # identifier says "dirty" iterates the raw set in hash order.
        name = _terminal_name(iterable)
        if name is not None and "dirty" in name.lower():
            yield self.violation(
                module,
                iterable,
                f"iteration over `{name}` follows set hash order; wrap it in "
                "sorted() before any order-sensitive work",
            )


#: Store-view accessors that return raw (hash-ordered) entity-id sets.
_READ_SET_ACCESSORS = frozenset({"review_entities", "entities_with_histories"})


class ReadPathIterationRule(Rule):
    """Read-path iteration over an unordered collection must be ``sorted()``.

    Two shapes reach ranked output in hash order if left bare:

    * direct iteration over the store views' raw-set accessors
      (``review_entities()`` / ``entities_with_histories()``) — both
      return plain ``set`` unions over shards, so the shard layout leaks
      into iteration order;
    * bare iteration over a ``candidate_ids``/``posting`` collection —
      the serving layer's contract is that these are materialized in
      entity-id order, and a bare loop over an unsorted rebuild would
      silently break render byte-identity between deployments.

    A call expression as the iterable (``sorted(...)``, an index method
    returning an ordered list) establishes explicit order and passes.
    """

    rule_id = "det-read-path"
    description = "read-path set iterated in hash order in service code"
    rationale = (
        "the serving layer renders ranked output byte-identically across "
        "shard counts; store-view set accessors and candidate/posting "
        "collections iterate in hash order unless sorted, which would leak "
        "shard layout and insertion history into what users see"
    )

    def check(self, module: ParsedModule, config: LintConfig) -> Iterator[Violation]:
        if not module.in_package(config.service_packages):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                yield from self._check_iterable(module, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    yield from self._check_iterable(module, generator.iter)

    def _check_iterable(
        self, module: ParsedModule, iterable: ast.expr
    ) -> Iterator[Violation]:
        if isinstance(iterable, ast.Call):
            name = _terminal_name(iterable.func)
            if name in _READ_SET_ACCESSORS:
                yield self.violation(
                    module,
                    iterable,
                    f"iteration over raw `{name}()` set follows hash order; "
                    "wrap the call in sorted() before any order-sensitive work",
                )
            return
        name = _terminal_name(iterable)
        if name is None:
            return
        lowered = name.lower()
        if "candidate_ids" in lowered or "posting" in lowered:
            yield self.violation(
                module,
                iterable,
                f"bare iteration over `{name}` may follow hash order; "
                "iterate a sorted() materialization instead",
            )
