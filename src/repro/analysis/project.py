"""Whole-program index: symbol table, call graph, and reachability.

:class:`ProjectIndex` stitches the per-file :class:`ModuleFacts` into one
program view.  Callee references recorded at extraction time are symbolic
(``dotted`` / ``self`` / ``method`` / ``local`` / ``builtin`` /
``unknown``); resolution happens here, against the full symbol table, so
a cached fact file stays valid even when *other* files change:

* ``dotted`` chases import aliases (re-exports) to a project function,
  class (constructor), or an external dotted name;
* ``self`` walks the receiver's MRO (class, then bases, breadth-first);
* ``method`` falls back to *every* project method of that name — the
  conservative answer for dynamic dispatch — plus an ``unknown`` edge
  when no project method matches;
* ``local`` targets nested functions/lambdas by qualname;
* function references passed into an unresolved call become edges too
  (the callee may invoke them).

Reachability queries return witness call chains, which the checkers put
verbatim into findings so a human can replay the path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.facts import CallSite, ClassFacts, FunctionFacts, ModuleFacts

#: Pseudo-target for calls the index cannot bound: the callee could be
#: anything, so checkers must treat the edge conservatively.
UNKNOWN = "<unknown>"


@dataclass
class ResolvedCall:
    """One call site with its possible targets spelled out."""

    site: CallSite
    targets: tuple[str, ...] = ()  # project function qualnames
    external: str | None = None  # dotted name outside the project
    constructor: str | None = None  # class qualname when instantiating
    unknown: bool = False  # conservatively unbounded callee

    @property
    def label(self) -> str:
        if self.constructor:
            return self.constructor
        if self.targets:
            return "|".join(self.targets)
        if self.external:
            return self.external
        return UNKNOWN


@dataclass
class ProjectIndex:
    config: AnalysisConfig
    modules: dict[str, ModuleFacts] = field(default_factory=dict)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    #: method name -> sorted qualnames of every project method so named
    method_index: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _resolved: dict[str, list[ResolvedCall]] = field(default_factory=dict)
    _successors: dict[str, list[tuple[str, int]]] = field(default_factory=dict)

    @classmethod
    def build(cls, config: AnalysisConfig, facts: Iterable[ModuleFacts]) -> "ProjectIndex":
        index = cls(config=config)
        for module_facts in facts:
            index.modules[module_facts.module] = module_facts
            index.functions.update(module_facts.functions)
            index.classes.update(module_facts.classes)
        methods: dict[str, set[str]] = {}
        for cls_facts in index.classes.values():
            for name, qualname in cls_facts.methods.items():
                methods.setdefault(name, set()).add(qualname)
        index.method_index = {
            name: tuple(sorted(qualnames)) for name, qualnames in methods.items()
        }
        return index

    # ------------------------------------------------------------ lookup

    def canonical(self, dotted: str) -> str:
        """Chase import aliases: ``repro.service.RSPServer`` (a package
        re-export) resolves to ``repro.service.server.RSPServer``."""
        for _ in range(8):
            if dotted in self.functions or dotted in self.classes:
                return dotted
            module, _, name = dotted.rpartition(".")
            module_facts = self.modules.get(module)
            if module_facts is None or name not in module_facts.imports:
                return dotted
            dotted = module_facts.imports[name]
        return dotted

    def mro_method(self, cls_qualname: str, method: str) -> str | None:
        """Resolve ``self.method()`` through the class, then its bases."""
        queue = deque([cls_qualname])
        seen = set()
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            cls_facts = self.classes.get(current)
            if cls_facts is None:
                continue
            if method in cls_facts.methods:
                return cls_facts.methods[method]
            queue.extend(self.canonical(base) for base in cls_facts.bases)
        return None

    # -------------------------------------------------------- resolution

    def resolve(self, caller: FunctionFacts, site: CallSite) -> ResolvedCall:
        callee = site.callee
        kind = callee["kind"]
        if kind == "local":
            targets = tuple(t for t in callee["targets"] if t in self.functions)
            return ResolvedCall(site, targets=targets, unknown=not targets)
        if kind == "dotted":
            return self._resolve_dotted(site, callee["target"])
        if kind == "self":
            target = self.mro_method(self.canonical(callee["cls"]), callee["method"])
            if target is not None:
                return ResolvedCall(site, targets=(target,))
            return self._resolve_method(site, callee["method"])
        if kind == "method":
            return self._resolve_method(site, callee["method"])
        if kind == "builtin":
            return ResolvedCall(site, external=f"builtins.{callee['name']}")
        return ResolvedCall(site, unknown=True)

    def _resolve_dotted(self, site: CallSite, dotted: str) -> ResolvedCall:
        dotted = self.canonical(dotted)
        if dotted in self.functions:
            return ResolvedCall(site, targets=(dotted,))
        if dotted in self.classes:
            init = self.mro_method(dotted, "__init__")
            return ResolvedCall(
                site,
                targets=(init,) if init else (),
                constructor=dotted,
            )
        if self.config.in_project(dotted):
            # A project name the index has no body for (attribute on an
            # object held in a module global, dynamic member, …).
            return ResolvedCall(site, unknown=True)
        return ResolvedCall(site, external=dotted)

    def _resolve_method(self, site: CallSite, method: str) -> ResolvedCall:
        # A receiver whose atoms are empty is a plain local (fresh list,
        # literal, sanitized value) — it cannot be a project object, so
        # name-matching every project method would only produce noise.
        if site.recv is not None and not site.recv:
            return ResolvedCall(site, unknown=True)
        targets = self.method_index.get(method, ())
        # Dynamic dispatch: keep every candidate *and* an unknown edge
        # (the receiver may be an external object).
        return ResolvedCall(site, targets=targets, unknown=True)

    def resolved_calls(self, qualname: str) -> list[ResolvedCall]:
        cached = self._resolved.get(qualname)
        if cached is None:
            facts = self.functions[qualname]
            cached = [self.resolve(facts, site) for site in facts.calls]
            self._resolved[qualname] = cached
        return cached

    # ------------------------------------------------------- call graph

    def successors(self, qualname: str) -> list[tuple[str, int]]:
        """(callee qualname | UNKNOWN, call line) edges out of a function.

        Besides direct targets, a function *reference* passed to an
        unresolved or external callee yields an edge — the callee may
        invoke it (``map(fn, …)``, ``sorted(key=fn)``).
        """
        cached = self._successors.get(qualname)
        if cached is not None:
            return cached
        edges: list[tuple[str, int]] = []
        for resolved in self.resolved_calls(qualname):
            line = resolved.site.line
            for target in resolved.targets:
                edges.append((target, line))
            if resolved.unknown:
                edges.append((UNKNOWN, line))
            if resolved.targets and not resolved.unknown and not resolved.external:
                continue
            for atoms in self._site_atom_sets(resolved.site):
                for target in self.func_targets(atoms):
                    edges.append((target, line))
        deduped = sorted(set(edges))
        self._successors[qualname] = deduped
        return deduped

    @staticmethod
    def _site_atom_sets(site: CallSite) -> Iterable:
        yield from site.args
        yield from site.kwargs.values()
        yield site.spill

    def func_targets(self, atoms: Iterable) -> Iterator[str]:
        """Project functions an atom set may refer to.  Besides ``func``
        atoms, a ``global`` atom naming a project function *is* a
        function reference (``helpers.rank`` read as a module
        attribute)."""
        for atom in atoms:
            if atom[0] == "func" and atom[1] in self.functions:
                yield atom[1]
            elif atom[0] == "global":
                canonical = self.canonical(atom[1])
                if canonical in self.functions:
                    yield canonical

    def reachable(
        self,
        roots: Iterable[str],
        stop: Callable[[str], bool] | None = None,
    ) -> dict[str, tuple[str, ...]]:
        """BFS over call edges.  Returns ``{qualname: witness chain}``
        where the chain starts at a root and ends at the function.

        ``stop`` prunes traversal *below* matching functions (they are
        still reported as reached)."""
        chains: dict[str, tuple[str, ...]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in chains:
                chains[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.popleft()
            if stop is not None and stop(current) and len(chains[current]) > 1:
                continue
            for target, _line in self.successors(current):
                if target == UNKNOWN or target in chains:
                    continue
                if target not in self.functions:
                    continue
                chains[target] = chains[current] + (target,)
                queue.append(target)
        return chains
