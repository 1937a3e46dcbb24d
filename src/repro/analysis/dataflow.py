"""Interprocedural dataflow over the per-file fact atoms.

Two engines, both operating on :class:`~repro.analysis.project.ProjectIndex`:

* :class:`ReturnSummaries` — bottom-up fixed point answering "which of a
  function's inputs may flow into its return value".  A summary is a set
  of parameter indices plus a set of constant atoms (identity sources,
  project globals, function references) that escape through the return.
* :class:`TaintPropagator` — top-down worklist that pushes identity
  taint through call edges.  Each work item is a function plus a map of
  tainted parameters to the source names that tainted them, along with
  the witness call chain; sink facts whose atoms evaluate tainted are
  reported through a callback.

External and unknown callees are conservative everywhere: taint in →
taint out, and an unresolved call's return carries every argument atom.
Sanitizer calls were already cut at extraction time (they produce no
atoms), so blessing a value with ``stable_digest``/``blind`` stops
propagation exactly like it does in the per-file rules.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.facts import Atom, AtomSet, CallSite, FunctionFacts
from repro.analysis.project import ProjectIndex, ResolvedCall

_EMPTY: AtomSet = frozenset()

#: Cap on distinct tainted-parameter contexts explored per function —
#: a safety valve, not a tuning knob; the repo stays far below it.
_MAX_CONTEXTS_PER_FUNCTION = 64


def bind_site_inputs(
    index: ProjectIndex, target: FunctionFacts, resolved: ResolvedCall
) -> dict[int, AtomSet]:
    """Map a call site's argument atoms onto the target's parameters.

    Methods called through a receiver bind the receiver to parameter 0;
    constructors skip ``self`` (the instance is fresh).  ``*args`` /
    ``**kwargs`` spill binds to every parameter — the conservative read.
    """
    site = resolved.site
    params = target.params
    bound: dict[int, set[Atom]] = {}

    def add(idx: int, atoms: AtomSet) -> None:
        if atoms and 0 <= idx < len(params):
            bound.setdefault(idx, set()).update(atoms)

    offset = 0
    if target.is_method:
        if site.recv is not None:
            add(0, site.recv)
            offset = 1
        elif resolved.constructor is not None:
            offset = 1
    for position, atoms in enumerate(site.args):
        add(position + offset, atoms)
    name_to_index = {name: i for i, name in enumerate(params)}
    for name, atoms in site.kwargs.items():
        if name in name_to_index:
            add(name_to_index[name], atoms)
    if site.spill:
        for idx in range(len(params)):
            add(idx, site.spill)
    return {idx: frozenset(atoms) for idx, atoms in bound.items()}


def site_input_atoms(site: CallSite) -> AtomSet:
    """Union of everything flowing into a call, receiver included."""
    merged: set[Atom] = set(site.spill)
    if site.recv:
        merged |= site.recv
    for atoms in site.args:
        merged |= atoms
    for atoms in site.kwargs.values():
        merged |= atoms
    return frozenset(merged)


# ------------------------------------------------------- return summaries


@dataclass
class ReturnSummary:
    params: frozenset[int] = frozenset()
    atoms: AtomSet = _EMPTY  # source / global / func atoms

    def merged_with(self, params: frozenset[int], atoms: AtomSet) -> "ReturnSummary":
        return ReturnSummary(self.params | params, self.atoms | atoms)


class ReturnSummaries:
    """qualname → which inputs may flow to the return value."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.summaries: dict[str, ReturnSummary] = {
            qualname: ReturnSummary() for qualname in index.functions
        }
        self._solve()

    def _solve(self) -> None:
        for _ in range(32):
            changed = False
            for qualname, facts in self.index.functions.items():
                expanded = self.expand(qualname, facts.returns)
                params = frozenset(a[1] for a in expanded if a[0] == "param")
                atoms = frozenset(a for a in expanded if a[0] != "param")
                current = self.summaries[qualname]
                if not (params <= current.params and atoms <= current.atoms):
                    self.summaries[qualname] = current.merged_with(params, atoms)
                    changed = True
            if not changed:
                return

    def expand(self, qualname: str, atoms: AtomSet) -> AtomSet:
        """Eliminate ``("call", s)`` atoms using current summaries."""
        out: set[Atom] = set()
        resolved_by_site = {
            r.site.site_id: r for r in self.index.resolved_calls(qualname)
        }
        pending = deque(atoms)
        seen_sites: set[int] = set()
        while pending:
            atom = pending.popleft()
            if atom[0] != "call":
                out.add(atom)
                continue
            if atom[1] in seen_sites:
                continue
            seen_sites.add(atom[1])
            resolved = resolved_by_site.get(atom[1])
            if resolved is None:
                continue
            pending.extend(self.call_return_atoms(resolved))
        return frozenset(out)

    def call_return_atoms(self, resolved: ResolvedCall) -> AtomSet:
        """Atoms a call's return value may carry, in the caller's frame."""
        site = resolved.site
        out: set[Atom] = set()
        if resolved.constructor is not None:
            # Wrapping semantics: the instance carries its ctor inputs.
            return site_input_atoms(site)
        matched = False
        for target in resolved.targets:
            facts = self.index.functions.get(target)
            summary = self.summaries.get(target)
            if facts is None or summary is None:
                continue
            matched = True
            out |= summary.atoms
            bound = bind_site_inputs(self.index, facts, resolved)
            for param_index in summary.params:
                out |= bound.get(param_index, _EMPTY)
        if resolved.external is not None or resolved.unknown or not matched:
            out |= site_input_atoms(site)
        return frozenset(out)


# -------------------------------------------------------- taint worklist


@dataclass(frozen=True)
class TaintContext:
    """One propagation work item: a function entered with these params
    tainted by these source names, along this witness chain."""

    qualname: str
    tainted: tuple[tuple[int, frozenset[str]], ...]  # sorted (param, sources)
    chain: tuple[str, ...]

    def sources_for(self, param_index: int) -> frozenset[str]:
        for index, sources in self.tainted:
            if index == param_index:
                return sources
        return frozenset()


class TaintPropagator:
    """Push identity taint top-down through the call graph.

    ``on_hit(facts, sink, sources, chain)`` fires for every sink fact
    whose atoms evaluate tainted in some context.  Contexts are
    deduplicated on (function, tainted-param map); chains record the
    first witness path that produced each context.
    """

    def __init__(self, index: ProjectIndex, returns: ReturnSummaries) -> None:
        self.index = index
        self.returns = returns

    def run(
        self,
        on_hit: Callable[[FunctionFacts, object, frozenset[str], tuple[str, ...]], None],
        roots: Iterable[str] | None = None,
    ) -> None:
        queue: deque[TaintContext] = deque()
        seen: set[tuple[str, tuple]] = set()
        per_function: dict[str, int] = {}
        for qualname in sorted(
            self.index.functions if roots is None else roots
        ):
            if qualname in self.index.functions:
                queue.append(TaintContext(qualname, (), (qualname,)))
        while queue:
            context = queue.popleft()
            key = (context.qualname, context.tainted)
            if key in seen:
                continue
            seen.add(key)
            count = per_function.get(context.qualname, 0)
            if count >= _MAX_CONTEXTS_PER_FUNCTION:
                continue
            per_function[context.qualname] = count + 1
            self._visit(context, queue, on_hit)

    # ------------------------------------------------------------ visit

    def _visit(
        self,
        context: TaintContext,
        queue: deque,
        on_hit: Callable,
    ) -> None:
        facts = self.index.functions[context.qualname]
        for sink in facts.sinks:
            sources = self._tainted_sources(context, sink.atoms)
            if sources:
                on_hit(facts, sink, sources, context.chain)
        for resolved in self.index.resolved_calls(context.qualname):
            for target in resolved.targets:
                callee = self.index.functions.get(target)
                if callee is None:
                    continue
                bound = bind_site_inputs(self.index, callee, resolved)
                tainted: list[tuple[int, frozenset[str]]] = []
                for param_index, atoms in sorted(bound.items()):
                    sources = self._tainted_sources(context, atoms)
                    if sources:
                        tainted.append((param_index, sources))
                if tainted:
                    queue.append(
                        TaintContext(
                            qualname=target,
                            tainted=tuple(tainted),
                            chain=context.chain + (target,),
                        )
                    )

    def _tainted_sources(self, context: TaintContext, atoms: AtomSet) -> frozenset[str]:
        """Source names that make ``atoms`` tainted in ``context``."""
        sources: set[str] = set()
        for atom in self.returns.expand(context.qualname, atoms):
            if atom[0] == "source":
                sources.add(atom[1])
            elif atom[0] == "param":
                sources |= context.sources_for(atom[1])
        return frozenset(sources)
