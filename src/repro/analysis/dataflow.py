"""Interprocedural dataflow over the per-file fact atoms.

Three engines, all operating on :class:`~repro.analysis.project.ProjectIndex`:

* :class:`ReturnSummaries` — bottom-up fixed point answering "which of a
  function's inputs may flow into its return value".  A summary is a set
  of parameter indices plus a set of constant atoms (identity sources,
  project globals, function references) that escape through the return.
* :class:`MutationSummaries` — bottom-up fixed point answering "which
  parameters / project globals may a function mutate, directly or through
  any callee".  Argument atoms are bound to callee parameters at each
  call site, so a helper mutating *its* first argument taints whatever
  the caller passed there.
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
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.analysis.facts import Atom, AtomSet, CallSite, FunctionFacts
from repro.analysis.project import ProjectIndex, ResolvedCall

_EMPTY: AtomSet = frozenset()

#: Cap on distinct tainted-parameter contexts explored per function —
#: a safety valve, not a tuning knob; the repo stays far below it.
_MAX_CONTEXTS_PER_FUNCTION = 64

#: External callables returning a *fresh* (shallow-copied) object.  In
#: object-identity mode (mutation analysis) their return aliases nothing:
#: ``out = list(xs); out.append(...)`` does not mutate ``xs``.  In value
#: mode (taint) they still forward their inputs — ``list(user_ids)`` is
#: as identifying as ``user_ids``.
_FRESH_EXTERNALS = frozenset(
    f"builtins.{name}"
    for name in (
        "list", "dict", "set", "tuple", "frozenset", "sorted", "reversed",
        "enumerate", "zip", "map", "filter", "sum", "min", "max", "len",
        "abs", "round", "str", "repr", "bytes", "bytearray", "range",
    )
)
#: Receiver methods returning a fresh object, same reasoning.
_FRESH_METHODS = frozenset({"copy"})

#: Container methods whose return aliases the receiver's *contents* (or
#: the default argument), never the lookup key: ``d.setdefault(k, [])``
#: returns a member of ``d`` or the fresh default — mutating it does not
#: mutate ``k``.
_RECEIVER_ALIASING_METHODS = frozenset({"get", "setdefault", "pop"})


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

    def expand(
        self, qualname: str, atoms: AtomSet, object_mode: bool = False
    ) -> AtomSet:
        """Eliminate ``("call", s)`` atoms using current summaries.

        ``object_mode=True`` asks about object *identity* rather than
        value content: fresh-constructor returns (``list(xs)``,
        ``xs.copy()``, project-class instantiation) alias nothing.
        """
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
            pending.extend(self.call_return_atoms(qualname, resolved, object_mode))
        return frozenset(out)

    def call_return_atoms(
        self, caller: str, resolved: ResolvedCall, object_mode: bool = False
    ) -> AtomSet:
        """Atoms a call's return value may carry, in the caller's frame."""
        site = resolved.site
        out: set[Atom] = set()
        if resolved.constructor is not None:
            if object_mode:
                return _EMPTY  # a brand-new instance aliases nothing
            # Wrapping semantics: the instance carries its ctor inputs.
            return site_input_atoms(site)
        if object_mode and not resolved.targets:
            if resolved.external in _FRESH_EXTERNALS:
                return _EMPTY
            method = site.callee.get("method")
            if method in _FRESH_METHODS:
                return _EMPTY
            if method in _RECEIVER_ALIASING_METHODS:
                aliased: set[Atom] = set(site.recv or ())
                for atoms in site.args[1:]:  # skip the lookup key
                    aliased |= atoms
                for atoms in site.kwargs.values():
                    aliased |= atoms
                aliased |= site.spill
                return frozenset(aliased)
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


# ----------------------------------------------------- mutation summaries


@dataclass
class MutationSummary:
    #: param index → (line, witness callee-or-detail)
    params: dict[int, tuple[int, str]] = field(default_factory=dict)
    #: dotted global → (line, witness callee-or-detail)
    globals: dict[str, tuple[int, str]] = field(default_factory=dict)


class MutationSummaries:
    """qualname → which parameters / project globals it may mutate."""

    def __init__(self, index: ProjectIndex, returns: ReturnSummaries) -> None:
        self.index = index
        self.returns = returns
        self.summaries: dict[str, MutationSummary] = {
            qualname: MutationSummary() for qualname in index.functions
        }
        self._solve()

    def _solve(self) -> None:
        for _ in range(32):
            changed = False
            for qualname, facts in self.index.functions.items():
                changed |= self._update(qualname, facts)
            if not changed:
                return

    def _update(self, qualname: str, facts: FunctionFacts) -> bool:
        summary = self.summaries[qualname]
        changed = False

        def note_param(idx: int, line: int, via: str) -> None:
            nonlocal changed
            if idx not in summary.params:
                summary.params[idx] = (line, via)
                changed = True

        def note_global(dotted: str, line: int, via: str) -> None:
            nonlocal changed
            if dotted not in summary.globals:
                summary.globals[dotted] = (line, via)
                changed = True

        for mutation in facts.mutations:
            expanded = self.returns.expand(qualname, mutation.atoms, object_mode=True)
            detail = f"{mutation.kind}:{mutation.detail}"
            for atom in expanded:
                if atom[0] == "param":
                    note_param(atom[1], mutation.line, detail)
                elif atom[0] == "global" and self.index.config.in_project(atom[1]):
                    note_global(atom[1], mutation.line, detail)
        for resolved in self.index.resolved_calls(qualname):
            line = resolved.site.line
            for target in resolved.targets:
                callee_facts = self.index.functions.get(target)
                callee_summary = self.summaries.get(target)
                if callee_facts is None or callee_summary is None:
                    continue
                # Snapshot: on a recursive call the callee summary *is*
                # this function's summary, which note_* mutates.
                for dotted in list(callee_summary.globals):
                    note_global(dotted, line, target)
                if not callee_summary.params:
                    continue
                bound = bind_site_inputs(self.index, callee_facts, resolved)
                for param_index in list(callee_summary.params):
                    for atom in self.returns.expand(
                        qualname, bound.get(param_index, _EMPTY), object_mode=True
                    ):
                        if atom[0] == "param":
                            note_param(atom[1], line, target)
                        elif atom[0] == "global" and self.index.config.in_project(
                            atom[1]
                        ):
                            note_global(atom[1], line, target)
        return changed


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
