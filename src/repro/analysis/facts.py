"""Per-file fact extraction for the whole-program analyzer.

One parsed module compiles into a :class:`ModuleFacts` value: every
function/method/lambda becomes a :class:`FunctionFacts` carrying its call
sites, privacy sinks, nondeterminism uses, and a local dataflow summary
expressed over *atoms*.  An atom names where a value may come from::

    ("source", name)   an identity-bearing name/attribute read
    ("param", i)       the function's i-th parameter (0 = self for methods)
    ("global", dotted) a project module-level name (or module attribute)
    ("call", site_id)  the return value of call site ``site_id``
    ("func", qualname) a reference to a known function/lambda

Atom sets are computed with a small may-analysis over local assignments
(iterated to a fixed point, so loop-carried flows converge), and they are
*local*: ``("call", s)`` atoms defer to the interprocedural engine
(:mod:`repro.analysis.dataflow`), which expands them through callee
summaries.  Everything here is JSON-serializable, which is what lets the
incremental cache (:mod:`repro.analysis.cache`) skip parsing and
extraction entirely for unchanged files.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.rules import RULES, last_segment
from repro.analysis.source import Finding, ParsedModule

Atom = tuple
AtomSet = frozenset

_EMPTY: AtomSet = frozenset()


def atoms_to_json(atoms: AtomSet) -> list:
    return sorted([list(atom) for atom in atoms])


def atoms_from_json(raw: Iterable) -> AtomSet:
    return frozenset(tuple(atom) for atom in raw)


@dataclass
class CallSite:
    """One call expression: who may be called, with which value atoms."""

    site_id: int
    line: int
    col: int
    callee: dict
    recv: AtomSet | None
    args: tuple[AtomSet, ...]
    kwargs: dict[str, AtomSet]
    spill: AtomSet  # *args/**kwargs contributions, bound to every param

    def to_dict(self) -> dict:
        return {
            "i": self.site_id,
            "l": self.line,
            "c": self.col,
            "f": self.callee,
            "r": None if self.recv is None else atoms_to_json(self.recv),
            "a": [atoms_to_json(a) for a in self.args],
            "k": {k: atoms_to_json(v) for k, v in sorted(self.kwargs.items())},
            "s": atoms_to_json(self.spill),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CallSite":
        return cls(
            site_id=raw["i"],
            line=raw["l"],
            col=raw["c"],
            callee=raw["f"],
            recv=None if raw["r"] is None else atoms_from_json(raw["r"]),
            args=tuple(atoms_from_json(a) for a in raw["a"]),
            kwargs={k: atoms_from_json(v) for k, v in raw["k"].items()},
            spill=atoms_from_json(raw["s"]),
        )


@dataclass
class SinkFact:
    """A value position that publishes: sink ctor arg, telemetry label,
    service-side log, or export/digest payload."""

    kind: str  # "sink" | "telemetry-label" | "log" | "export"
    name: str  # constructor / method name
    label: str | None  # keyword name for telemetry labels
    line: int
    col: int
    atoms: AtomSet

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "label": self.label,
            "l": self.line,
            "c": self.col,
            "atoms": atoms_to_json(self.atoms),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SinkFact":
        return cls(
            kind=raw["kind"],
            name=raw["name"],
            label=raw["label"],
            line=raw["l"],
            col=raw["c"],
            atoms=atoms_from_json(raw["atoms"]),
        )


@dataclass
class FunctionFacts:
    """Everything the whole-program phases need to know about one function."""

    qualname: str
    module: str
    path: str
    line: int
    params: tuple[str, ...]
    is_method: bool = False
    cls: str | None = None
    decorators: tuple[str, ...] = ()
    calls: list[CallSite] = field(default_factory=list)
    sinks: list[SinkFact] = field(default_factory=list)
    #: function-local unordered iterations: (name, line, col)
    unordered: list[tuple[str, int, int]] = field(default_factory=list)
    returns: AtomSet = _EMPTY

    def to_dict(self) -> dict:
        return {
            "q": self.qualname,
            "m": self.module,
            "p": self.path,
            "l": self.line,
            "params": list(self.params),
            "method": self.is_method,
            "cls": self.cls,
            "dec": list(self.decorators),
            "calls": [c.to_dict() for c in self.calls],
            "sinks": [s.to_dict() for s in self.sinks],
            "unordered": [list(u) for u in self.unordered],
            "ret": atoms_to_json(self.returns),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FunctionFacts":
        return cls(
            qualname=raw["q"],
            module=raw["m"],
            path=raw["p"],
            line=raw["l"],
            params=tuple(raw["params"]),
            is_method=raw["method"],
            cls=raw["cls"],
            decorators=tuple(raw["dec"]),
            calls=[CallSite.from_dict(c) for c in raw["calls"]],
            sinks=[SinkFact.from_dict(s) for s in raw["sinks"]],
            unordered=[tuple(u) for u in raw["unordered"]],
            returns=atoms_from_json(raw["ret"]),
        )


@dataclass
class ClassFacts:
    qualname: str
    line: int
    bases: tuple[str, ...] = ()  # dotted where resolvable
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname

    def to_dict(self) -> dict:
        return {
            "q": self.qualname,
            "l": self.line,
            "bases": list(self.bases),
            "methods": dict(sorted(self.methods.items())),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ClassFacts":
        return cls(
            qualname=raw["q"],
            line=raw["l"],
            bases=tuple(raw["bases"]),
            methods=dict(raw["methods"]),
        )


@dataclass
class ModuleFacts:
    path: str
    module: str
    digest: str
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    #: import alias -> dotted target (lets the index chase re-exports)
    imports: dict[str, str] = field(default_factory=dict)
    line_suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    file_suppressions: frozenset[str] = _EMPTY
    #: every per-file rule's findings, unfiltered by selection or waivers
    findings: list[Finding] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "digest": self.digest,
            "functions": {q: f.to_dict() for q, f in sorted(self.functions.items())},
            "classes": {q: c.to_dict() for q, c in sorted(self.classes.items())},
            "imports": dict(sorted(self.imports.items())),
            "line_supp": {str(k): sorted(v) for k, v in self.line_suppressions.items()},
            "file_supp": sorted(self.file_suppressions),
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ModuleFacts":
        return cls(
            path=raw["path"],
            module=raw["module"],
            digest=raw["digest"],
            functions={
                q: FunctionFacts.from_dict(f) for q, f in raw["functions"].items()
            },
            classes={q: ClassFacts.from_dict(c) for q, c in raw["classes"].items()},
            imports=dict(raw["imports"]),
            line_suppressions={
                int(k): frozenset(v) for k, v in raw["line_supp"].items()
            },
            file_suppressions=frozenset(raw["file_supp"]),
            findings=[Finding.from_dict(f) for f in raw["findings"]],
        )

    def suppressed(self, checker_id: str, line: int) -> bool:
        return checker_id in self.file_suppressions or checker_id in (
            self.line_suppressions.get(line) or frozenset()
        )


# --------------------------------------------------------------- walking


def _walk_own(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk ``nodes`` without descending into nested scope bodies.

    Nested function/class *bodies* belong to their own scopes, but their
    decorators and default-argument expressions evaluate in the enclosing
    scope — those subtrees are walked here.
    """
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            stack.extend(node.decorator_list)
            if not isinstance(node, ast.ClassDef):
                stack.extend(node.args.defaults)
                stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Lambda):
            yield node
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _Scope:
    """Per-function extraction state."""

    def __init__(
        self,
        qualname: str,
        params: tuple[str, ...],
        is_method: bool,
        cls: str | None,
        parent: "_Scope | None",
    ) -> None:
        self.qualname = qualname
        self.params = {name: index for index, name in enumerate(params)}
        self.is_method = is_method
        self.cls = cls
        self.parent = parent
        self.env: dict[str, set[Atom]] = {}
        self.set_locals: set[str] = set()
        self.funcrefs: dict[str, str] = {}
        self.site_ids: dict[int, int] = {}
        self.lambda_names: dict[int, str] = {}

    def lookup_funcref(self, name: str) -> str | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.funcrefs:
                return scope.funcrefs[name]
            scope = scope.parent
        return None


class Extractor:
    """Compiles one :class:`ParsedModule` into :class:`ModuleFacts`."""

    def __init__(self, parsed: ParsedModule, config: AnalysisConfig) -> None:
        self.parsed = parsed
        self.config = config
        self.module = parsed.module
        self.imports: dict[str, str] = {}
        self.module_defs: dict[str, str] = {}  # name -> qualname (def/class)
        self.module_classes: set[str] = set()
        #: names assigned at module level (``_name_atoms`` resolves them
        #: to ``global`` atoms even when they shadow a builtin)
        self.module_globals: set[str] = set()
        self.facts = ModuleFacts(
            path=parsed.path,
            module=parsed.module,
            digest="",
            line_suppressions=dict(parsed.line_suppressions),
            file_suppressions=parsed.file_suppressions,
        )

    # -------------------------------------------------------------- entry

    def run(self, digest: str) -> ModuleFacts:
        self.facts.digest = digest
        tree = self.parsed.tree
        self._collect_imports(tree)
        self._collect_module_names(tree.body)
        self.facts.imports = dict(self.imports)
        # Module body is a pseudo-function: module-level calls, sinks, and
        # decorator applications live there.
        self._function(
            qualname=f"{self.module}.<module>",
            node_line=1,
            params=(),
            body=tree.body,
            is_method=False,
            cls=None,
            parent=None,
            decorators=(),
        )
        self.facts.findings = [f for rule in RULES for f in rule.check(self)]
        return self.facts

    # ------------------------------------------------- module-level names

    def _collect_imports(self, tree: ast.Module) -> None:
        """Alias → dotted target for every import statement in the file,
        including guarded and function-local ones."""
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[name] = target
            elif isinstance(stmt, ast.ImportFrom):
                base = self._resolve_from(stmt)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self.imports[name] = f"{base}.{alias.name}" if base else alias.name

    def _resolve_from(self, stmt: ast.ImportFrom) -> str:
        if stmt.level == 0:
            return stmt.module or ""
        # Relative import: strip `level - 1` segments off the package
        # containing this module (an ``__init__`` names its package).
        parts = self.module.split(".")
        if not self.parsed.path.endswith("__init__.py"):
            parts = parts[:-1]
        cut = len(parts) - (stmt.level - 1)
        if cut < 0:
            return ""
        package = parts[:cut]
        if stmt.module:
            package = package + stmt.module.split(".")
        return ".".join(package)

    def import_targets(self, stmt: ast.Import | ast.ImportFrom) -> list[str]:
        """Absolute dotted targets named by one import statement, wherever
        it sits.  ``from repro.service import server`` names both
        ``repro.service`` and ``repro.service.server``."""
        if isinstance(stmt, ast.Import):
            return [alias.name for alias in stmt.names]
        base = self._resolve_from(stmt)
        if not base:
            return []
        return [base, *(f"{base}.{a.name}" for a in stmt.names if a.name != "*")]

    def dotted(self, node: ast.expr) -> str | None:
        """Dotted origin of an import-rooted name or attribute chain,
        e.g. ``np.random.seed`` → ``numpy.random.seed``."""
        return self._dotted(None, node)

    def _collect_module_names(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_defs[stmt.name] = f"{self.module}.{stmt.name}"
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{self.module}.{stmt.name}"
                self.module_defs[stmt.name] = qualname
                self.module_classes.add(qualname)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    for name_node in self._target_names(target):
                        self.module_globals.add(name_node.id)

    @staticmethod
    def _target_names(target: ast.expr) -> Iterator[ast.Name]:
        if isinstance(target, ast.Name):
            yield target
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from Extractor._target_names(element)
        elif isinstance(target, ast.Starred):
            yield from Extractor._target_names(target.value)

    # ----------------------------------------------------------- function

    def _function(
        self,
        qualname: str,
        node_line: int,
        params: tuple[str, ...],
        body: list[ast.stmt],
        is_method: bool,
        cls: str | None,
        parent: "_Scope | None",
        decorators: tuple[str, ...],
    ) -> None:
        scope = _Scope(qualname, params, is_method, cls, parent)
        facts = FunctionFacts(
            qualname=qualname,
            module=self.module,
            path=self.facts.path,
            line=node_line,
            params=params,
            is_method=is_method,
            cls=cls,
            decorators=decorators,
        )
        self.facts.functions[qualname] = facts
        own = list(_walk_own(body))
        # Nested scopes first: their names become funcref atoms here.
        for node in own:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_q = self._nested_qualname(scope, node.name)
                scope.funcrefs[node.name] = child_q
                self._def_function(node, child_q, is_method=False, cls=None, parent=scope)
            elif isinstance(node, ast.ClassDef):
                self._class(node, scope)
            elif isinstance(node, ast.Lambda):
                child_q = (
                    f"{self._scope_base(scope)}.<lambda L{node.lineno}C{node.col_offset}>"
                )
                scope.lambda_names[id(node)] = child_q
                self._lambda(node, child_q, scope)
        # Deterministic call-site ids, in source order.
        for index, node in enumerate(
            sorted(
                (n for n in own if isinstance(n, ast.Call)),
                key=lambda n: (n.lineno, n.col_offset),
            )
        ):
            scope.site_ids[id(node)] = index
        self._env_fixpoint(scope, body)
        self._collect(scope, facts, own)

    def _scope_base(self, scope: _Scope) -> str:
        if scope.qualname.endswith(".<module>"):
            return self.module
        return scope.qualname

    def _nested_qualname(self, scope: _Scope, name: str) -> str:
        if scope.qualname.endswith(".<module>"):
            return f"{self.module}.{name}"
        return f"{scope.qualname}.<locals>.{name}"

    def _def_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        is_method: bool,
        cls: str | None,
        parent: "_Scope | None",
    ) -> None:
        args = node.args
        names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        decorators = tuple(
            d for d in (self._decorator_name(expr) for expr in node.decorator_list) if d
        )
        if is_method and ("staticmethod" in decorators or "classmethod" in decorators):
            is_method = False
        self._function(
            qualname=qualname,
            node_line=node.lineno,
            params=tuple(names),
            body=node.body,
            is_method=is_method,
            cls=cls,
            parent=parent,
            decorators=decorators,
        )

    def _decorator_name(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            dotted = self._dotted(None, expr)
            return dotted or expr.attr
        return None

    def _lambda(self, node: ast.Lambda, qualname: str, parent: _Scope) -> None:
        args = node.args
        names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        self._function(
            qualname=qualname,
            node_line=node.lineno,
            params=tuple(names),
            body=[ast.Return(value=node.body, lineno=node.lineno, col_offset=node.col_offset)],
            is_method=False,
            cls=None,
            parent=parent,
            decorators=(),
        )

    def _class(self, node: ast.ClassDef, scope: _Scope) -> None:
        if scope.qualname.endswith(".<module>"):
            qualname = f"{self.module}.{node.name}"
        else:
            qualname = f"{scope.qualname}.<locals>.{node.name}"
        bases = []
        for base in node.bases:
            dotted = self._dotted(None, base)
            if dotted:
                bases.append(dotted)
            elif isinstance(base, ast.Name):
                bases.append(self.module_defs.get(base.id, base.id))
        cls_facts = ClassFacts(qualname=qualname, line=node.lineno, bases=tuple(bases))
        self.facts.classes[qualname] = cls_facts
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_q = f"{qualname}.{stmt.name}"
                cls_facts.methods[stmt.name] = method_q
                self._def_function(
                    stmt, method_q, is_method=True, cls=qualname, parent=scope
                )
            elif isinstance(stmt, ast.ClassDef):
                self._class_nested(stmt, qualname, scope)

    def _class_nested(self, node: ast.ClassDef, outer: str, scope: _Scope) -> None:
        qualname = f"{outer}.{node.name}"
        cls_facts = ClassFacts(qualname=qualname, line=node.lineno)
        self.facts.classes[qualname] = cls_facts
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_q = f"{qualname}.{stmt.name}"
                cls_facts.methods[stmt.name] = method_q
                self._def_function(
                    stmt, method_q, is_method=True, cls=qualname, parent=scope
                )

    # ------------------------------------------------------ env fixpoint

    def _env_fixpoint(self, scope: _Scope, body: list[ast.stmt]) -> None:
        for _ in range(8):
            self._changed = False
            self._env_stmts(scope, body)
            if not self._changed:
                break

    def _bind(self, scope: _Scope, name: str, atoms: AtomSet) -> None:
        current = scope.env.setdefault(name, set())
        before = len(current)
        current.update(atoms)
        if len(current) != before:
            self._changed = True

    def _bind_target(self, scope: _Scope, target: ast.expr, atoms: AtomSet) -> None:
        if isinstance(target, ast.Name):
            self._bind(scope, target.id, atoms)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(scope, element, atoms)
        elif isinstance(target, ast.Starred):
            self._bind_target(scope, target.value, atoms)
        # Attribute/Subscript stores bind no local name.

    def _bind_unpacked(
        self, scope: _Scope, target: ast.expr, value: ast.expr, loop: bool = False
    ) -> None:
        """Bind an assignment/loop target, positionally when the value is
        a literal tuple (or a literal sequence of same-arity tuples, the
        ``for name, thing in (("a", x), ("b", y))`` idiom) — otherwise
        every target name gets the union, the conservative fallback.

        ``loop=True`` means ``value`` is the thing *iterated*, so only
        the rows-of-tuples shape may bind positionally."""
        if isinstance(target, ast.Tuple) and not any(
            isinstance(element, ast.Starred) for element in target.elts
        ):
            width = len(target.elts)
            columns: list[list[ast.expr]] | None = None
            if not loop and isinstance(value, ast.Tuple) and len(value.elts) == width:
                columns = [[element] for element in value.elts]
            elif loop and isinstance(value, (ast.Tuple, ast.List)) and value.elts:
                rows = value.elts
                if all(
                    isinstance(row, ast.Tuple) and len(row.elts) == width
                    for row in rows
                ):
                    columns = [[row.elts[j] for row in rows] for j in range(width)]
            if columns is not None:
                for element, column in zip(target.elts, columns):
                    merged: set[Atom] = set()
                    for expr in column:
                        merged |= self._atoms(scope, expr)
                    self._bind_target(scope, element, frozenset(merged))
                return
        self._bind_target(scope, target, self._atoms(scope, value))

    def _env_stmts(self, scope: _Scope, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._bind_unpacked(scope, target, stmt.value)
                self._note_set_valued(scope, stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                atoms = self._atoms(scope, stmt.value)
                self._bind_target(scope, stmt.target, atoms)
                self._note_set_valued(scope, [stmt.target], stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    self._bind(scope, stmt.target.id, self._atoms(scope, stmt.value))
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind_unpacked(scope, stmt.target, stmt.iter, loop=True)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        self._bind_target(
                            scope,
                            item.optional_vars,
                            self._atoms(scope, item.context_expr),
                        )
            elif isinstance(stmt, (ast.Expr, ast.Return)):
                if stmt.value is not None:
                    self._atoms(scope, stmt.value)  # walrus bindings
            # Recurse into compound statements.
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    self._env_stmts(scope, inner)
            for handler in getattr(stmt, "handlers", []) or []:
                if handler.name:
                    self._bind(scope, handler.name, _EMPTY)
                self._env_stmts(scope, handler.body)

    def _note_set_valued(
        self, scope: _Scope, targets: list[ast.expr], value: ast.expr
    ) -> None:
        if not self._is_set_valued(scope, value):
            return
        for target in targets:
            for name_node in self._target_names(target):
                if name_node.id not in scope.set_locals:
                    scope.set_locals.add(name_node.id)
                    self._changed = True

    def _is_set_valued(self, scope: _Scope, value: ast.expr) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and last_segment(value.func) == "set":
            return True
        if isinstance(value, ast.Name) and value.id in scope.set_locals:
            return True
        if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return self._is_set_valued(scope, value.left) or self._is_set_valued(
                scope, value.right
            )
        return False

    # ------------------------------------------------------------- atoms

    def _atoms(self, scope: _Scope, node: ast.expr, overlay: dict | None = None) -> AtomSet:
        config = self.config
        if isinstance(node, ast.Name):
            return self._name_atoms(scope, node, overlay)
        if isinstance(node, ast.Attribute):
            result: set[Atom] = set()
            if node.attr in config.identity_names:
                result.add(("source", node.attr))
            dotted = self._dotted(scope, node)
            if dotted is not None:
                if config.in_project(dotted):
                    result.add(("global", dotted))
                return frozenset(result)
            result |= self._atoms(scope, node.value, overlay)
            return frozenset(result)
        if isinstance(node, ast.Call):
            callee = last_segment(node.func)
            if callee in config.sanitizers:
                return _EMPTY
            site = scope.site_ids.get(id(node))
            if site is None:  # a call inside a nested scope's subtree
                return _EMPTY
            return frozenset({("call", site)})
        if isinstance(node, ast.Lambda):
            qualname = scope.lambda_names.get(id(node))
            return frozenset({("func", qualname)}) if qualname else _EMPTY
        if isinstance(node, ast.NamedExpr):
            atoms = self._atoms(scope, node.value, overlay)
            if isinstance(node.target, ast.Name):
                self._bind(scope, node.target.id, atoms)
            return atoms
        if isinstance(node, ast.Subscript):
            # ``d[k]`` is a member of ``d``; the key's atoms say nothing
            # about what comes out.
            return self._atoms(scope, node.value, overlay)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            local = dict(overlay or {})
            for generator in node.generators:
                iter_atoms = self._atoms(scope, generator.iter, local)
                for name_node in self._target_names(generator.target):
                    local[name_node.id] = iter_atoms
                    # Also register in env so later bare reads of the
                    # target see a local, not a phantom module global.
                    self._bind(scope, name_node.id, iter_atoms)
            parts: set[Atom] = set()
            if isinstance(node, ast.DictComp):
                parts |= self._atoms(scope, node.key, local)
                parts |= self._atoms(scope, node.value, local)
            else:
                parts |= self._atoms(scope, node.elt, local)
            for generator in node.generators:
                for condition in generator.ifs:
                    parts |= self._atoms(scope, condition, local)
            return frozenset(parts)
        # Generic union over child expressions (covers BinOp, BoolOp,
        # IfExp, JoinedStr, Subscript, Starred, Tuple, Dict, Compare, …).
        parts = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                parts |= self._atoms(scope, child, overlay)
        return frozenset(parts)

    def _name_atoms(
        self, scope: _Scope, node: ast.Name, overlay: dict | None
    ) -> AtomSet:
        name = node.id
        config = self.config
        result: set[Atom] = set()
        if name in config.identity_names:
            result.add(("source", name))
        if overlay and name in overlay:
            result |= overlay[name]
            return frozenset(result)
        bound = False
        if name in scope.params:
            result.add(("param", scope.params[name]))
            bound = True
        if name in scope.env:
            result |= scope.env[name]
            bound = True
        if bound:
            return frozenset(result)
        funcref = scope.lookup_funcref(name)
        if funcref is not None:
            result.add(("func", funcref))
            return frozenset(result)
        if name in self.module_defs:
            result.add(("func", self.module_defs[name]))
            return frozenset(result)
        if name in self.imports:
            dotted = self.imports[name]
            if config.in_project(dotted):
                result.add(("global", dotted))
            return frozenset(result)
        if name in self.module_globals or not hasattr(builtins, name):
            result.add(("global", f"{self.module}.{name}"))
        return frozenset(result)

    def _dotted(self, scope: _Scope | None, node: ast.expr) -> str | None:
        """Dotted path of an import-rooted attribute chain, else None."""
        if isinstance(node, ast.Attribute):
            base = self._dotted(scope, node.value)
            return None if base is None else f"{base}.{node.attr}"
        if isinstance(node, ast.Name):
            name = node.id
            if scope is not None and (name in scope.params or name in scope.env):
                return None
            if name in self.imports:
                return self.imports[name]
            if name in self.module_defs:
                return self.module_defs[name]
            return None
        return None

    # ----------------------------------------------------------- collect

    def _collect(
        self, scope: _Scope, facts: FunctionFacts, own: list[ast.AST]
    ) -> None:
        returns: set[Atom] = set()
        for node in own:
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) and getattr(
                node, "value", None
            ) is not None:
                returns |= self._atoms(scope, node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_unordered(scope, facts, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                if not self._order_insensitive(node, own):
                    for generator in node.generators:
                        self._check_unordered(scope, facts, generator.iter)

        # Call sites (and the sinks they imply), in source order.
        calls = sorted(
            (n for n in own if isinstance(n, ast.Call)),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for node in calls:
            site = self._call_site(scope, node)
            facts.calls.append(site)
            self._sinks_for(scope, facts, node, site)
        facts.returns = frozenset(returns)
        facts.sinks.sort(key=lambda s: (s.line, s.col, s.kind, s.name))

    #: Consumers for which element order cannot escape: flowing a set
    #: iteration into one of these is deterministic by construction.
    _ORDER_INSENSITIVE_CALLS = frozenset(
        {"sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len"}
    )

    def _order_insensitive(self, node: ast.AST, own: list[ast.AST]) -> bool:
        """True when a comprehension's iteration order cannot be observed:
        it *is* (or feeds, through nested comprehensions only) a set/dict
        display or an order-insensitive reduction like ``sorted``."""
        if isinstance(node, (ast.SetComp, ast.DictComp)):
            return True
        parents: dict[int, ast.AST] = {}
        for candidate in own:
            for child in ast.iter_child_nodes(candidate):
                parents.setdefault(id(child), candidate)
        current = node
        while True:
            parent = parents.get(id(current))
            if parent is None:
                return False
            if isinstance(parent, (ast.SetComp, ast.DictComp)):
                return True
            if isinstance(parent, ast.Call) and current in parent.args:
                return last_segment(parent.func) in self._ORDER_INSENSITIVE_CALLS
            if isinstance(
                parent, (ast.GeneratorExp, ast.ListComp, ast.comprehension)
            ):
                current = parent
                continue
            return False

    def _check_unordered(
        self, scope: _Scope, facts: FunctionFacts, iterable: ast.expr
    ) -> None:
        if self._is_set_valued(scope, iterable):
            name = (
                iterable.id
                if isinstance(iterable, ast.Name)
                else iterable.__class__.__name__
            )
            facts.unordered.append((name, iterable.lineno, iterable.col_offset))

    # -------------------------------------------------------- call sites

    def _call_site(self, scope: _Scope, node: ast.Call) -> CallSite:
        callee = self._callee_ref(scope, node.func)
        recv: AtomSet | None = None
        if callee["kind"] in ("method", "self") and isinstance(node.func, ast.Attribute):
            recv = self._atoms(scope, node.func.value)
        args: list[AtomSet] = []
        spill: set[Atom] = set()
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                spill |= self._atoms(scope, arg.value)
            else:
                args.append(self._atoms(scope, arg))
        kwargs: dict[str, AtomSet] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                spill |= self._atoms(scope, keyword.value)
            else:
                kwargs[keyword.arg] = self._atoms(scope, keyword.value)
        return CallSite(
            site_id=scope.site_ids[id(node)],
            line=node.lineno,
            col=node.col_offset,
            callee=callee,
            recv=recv,
            args=tuple(args),
            kwargs=kwargs,
            spill=frozenset(spill),
        )

    def _callee_ref(self, scope: _Scope, func: ast.expr) -> dict:
        if isinstance(func, ast.Name):
            name = func.id
            env_targets = sorted(
                atom[1]
                for atom in scope.env.get(name, ())
                if atom[0] == "func"
            )
            if env_targets:
                return {"kind": "local", "targets": env_targets}
            funcref = scope.lookup_funcref(name)
            if funcref is not None:
                return {"kind": "local", "targets": [funcref]}
            if name in self.module_defs:
                return {"kind": "dotted", "target": self.module_defs[name]}
            if name in self.imports:
                return {"kind": "dotted", "target": self.imports[name]}
            if hasattr(builtins, name):
                return {"kind": "builtin", "name": name}
            return {"kind": "unknown", "name": name}
        if isinstance(func, ast.Attribute):
            dotted = self._dotted(scope, func)
            if dotted is not None:
                return {"kind": "dotted", "target": dotted}
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and scope.is_method
                and scope.cls is not None
            ):
                return {"kind": "self", "cls": scope.cls, "method": func.attr}
            return {"kind": "method", "method": func.attr}
        return {"kind": "unknown", "name": func.__class__.__name__}

    # -------------------------------------------------------------- sinks

    def _sinks_for(
        self, scope: _Scope, facts: FunctionFacts, node: ast.Call, site: CallSite
    ) -> None:
        config = self.config
        callee_name = last_segment(node.func)
        if callee_name in config.sink_names:
            for label, atoms in self._site_values(site):
                if atoms:
                    facts.sinks.append(
                        SinkFact(
                            kind="sink",
                            name=callee_name,
                            label=label,
                            line=node.lineno,
                            col=node.col_offset,
                            atoms=atoms,
                        )
                    )
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in config.telemetry_methods
            and last_segment(node.func.value) in config.telemetry_receivers
        ):
            for label, atoms in site.kwargs.items():
                if label in config.telemetry_value_params or not atoms:
                    continue
                facts.sinks.append(
                    SinkFact(
                        kind="telemetry-label",
                        name=node.func.attr,
                        label=label,
                        line=node.lineno,
                        col=node.col_offset,
                        atoms=atoms,
                    )
                )
            return
        if callee_name in config.log_methods and (
            callee_name == "print" or isinstance(node.func, ast.Attribute)
        ):
            for label, atoms in self._site_values(site):
                if atoms:
                    facts.sinks.append(
                        SinkFact(
                            kind="log",
                            name=callee_name,
                            label=label,
                            line=node.lineno,
                            col=node.col_offset,
                            atoms=atoms,
                        )
                    )
            return
        if callee_name in config.export_sink_names:
            for label, atoms in self._site_values(site):
                if atoms:
                    facts.sinks.append(
                        SinkFact(
                            kind="export",
                            name=callee_name,
                            label=label,
                            line=node.lineno,
                            col=node.col_offset,
                            atoms=atoms,
                        )
                    )

    @staticmethod
    def _site_values(site: CallSite) -> Iterator[tuple[str | None, AtomSet]]:
        for index, atoms in enumerate(site.args):
            yield (str(index), atoms)
        for label, atoms in sorted(site.kwargs.items()):
            yield (label, atoms)
        if site.spill:
            yield ("*", site.spill)


def extract(parsed: ParsedModule, config: AnalysisConfig, digest: str) -> ModuleFacts:
    """Compile one parsed module into its serializable fact set."""
    return Extractor(parsed, config).run(digest)
