"""The twelve per-file rules.

Each rule is a pure AST → findings function over one parsed module.
They run once per file inside fact extraction
(:func:`repro.analysis.facts.extract`), so their findings are cached
with the file's other facts and replayed with them.

==================================  =============================================
rule id                             what it forbids
==================================  =============================================
``priv-taint-sink``                 an identity-bearing name inside a call to an
                                    upload/publication sink constructor, unless
                                    wrapped in a sanctioned sanitizer
``priv-server-identity``            identity-bearing parameters or record fields
                                    declared in the service layer
``priv-telemetry-label``            identity-bearing values in telemetry label
                                    positions
``det-random-module``               the stdlib :mod:`random` module outside
                                    ``repro.util.rng``
``det-wall-clock``                  wall-clock reads outside ``repro.util.clock``
``det-numpy-random``                direct ``numpy.random`` use outside
                                    ``repro.util.rng``
``det-dirty-iteration``             service-layer loops over dirty-entity sets
                                    that are not ``sorted()``
``det-read-path``                   service-layer loops over raw store-view sets
                                    or unsorted candidate/posting collections
``layer-client-service``            device-side packages importing the service
``layer-service-client``            the service importing device-side packages
``faults-only-in-harness``          :mod:`repro.faults` imported outside the
                                    experiment harness
``durability-fsync-before-ack``     an acceptance commit before the WAL append
                                    in service code, or an unflushed WAL write
                                    in ``repro.durability``
==================================  =============================================

Each rule's ``rationale`` names the paper invariant it protects
(Section 4.2 unlinkability, seeded replayability, the Figure 2
device/service split, crash recovery); ``repro analyze --list-checkers``
prints them.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.config import AnalysisConfig
from repro.analysis.source import Finding, ParsedModule, in_package

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.facts import Extractor


def last_segment(node: ast.expr) -> str | None:
    """The last identifier of a bare name or attribute chain:
    ``a.b.C`` → ``C``, ``self.journal`` → ``journal``; else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class Rule:
    """Base class for per-file rules.

    Subclasses set ``checker_id``/``description``/``rationale`` and
    implement :meth:`check`.  The extractor hands over the parsed module,
    the config, and its own import resolution.
    """

    checker_id: str = ""
    description: str = ""
    rationale: str = ""

    def check(self, source: "Extractor") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ParsedModule, node: ast.AST, message: str, detail: str | None = None
    ) -> Finding:
        return Finding(
            checker_id=self.checker_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            function=module.module,
            message=message,
            detail=message if detail is None else detail,
        )


# ------------------------------------------------------------------ privacy


def _iter_tainted(
    config: AnalysisConfig, node: ast.AST
) -> Iterator[tuple[ast.expr, str]]:
    """Identity-bearing names reachable in ``node``, sanitizers excepted.

    Descends through nested calls (a taint wrapped only in formatting is
    still a taint) but stops at sanctioned sanitizer calls, whose output
    is unlinkable by construction.  Each finding stops its own branch, so
    ``record.device_id`` reports once, not per attribute segment.

    The descent covers *every* child node, not just ``ast.expr`` children:
    comprehension generators (``ast.comprehension``), lambda defaults
    (``ast.arguments``), f-string format specs, and subscripted callees
    all hide expressions inside non-expression wrapper nodes.
    """
    if isinstance(node, ast.Call):
        if last_segment(node.func) in config.sanitizers:
            return  # sanctioned: the call's output is unlinkable
        for child in list(node.args) + [kw.value for kw in node.keywords]:
            yield from _iter_tainted(config, child)
        yield from _iter_tainted(config, node.func)
        return
    tainted: str | None = None
    if isinstance(node, ast.Name) and node.id in config.identity_names:
        tainted = node.id
    elif isinstance(node, ast.Attribute) and node.attr in config.identity_names:
        tainted = node.attr
    if tainted is not None:
        yield node, tainted  # type: ignore[misc]  # Name/Attribute are exprs
        return
    for child in ast.iter_child_nodes(node):
        yield from _iter_tainted(config, child)


class SinkTaintRule(Rule):
    checker_id = "priv-taint-sink"
    description = "identity-bearing value flows into an upload/publication sink"
    rationale = (
        "histories are unlinkable only if every record leaving the device is "
        "keyed by hash(Ru, e); a raw user_id/device_id/secret in a sink payload "
        "lets the server re-link opinion histories (Section 4.2)"
    )

    def check(self, source: "Extractor") -> Iterator[Finding]:
        module, config = source.parsed, source.config
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            sink = last_segment(node.func)
            if sink not in config.sink_names:
                continue
            for value in list(node.args) + [kw.value for kw in node.keywords]:
                for tainted_node, tainted in _iter_tainted(config, value):
                    yield self.finding(
                        module,
                        tainted_node,
                        f"identity-bearing `{tainted}` flows into `{sink}(...)`; "
                        "route it through a sanctioned sanitizer (e.g. "
                        "DeviceIdentity.history_id or repro.util.hashing."
                        "record_id) or drop it from the payload",
                    )


class ServerIdentityRule(Rule):
    checker_id = "priv-server-identity"
    description = "identity-bearing parameter/field declared in the service layer"
    rationale = (
        "the server half of Figure 2 must be unable to link histories to users; "
        "any API that hands it a raw identity is an auditable exception, not a "
        "convention (suppress with a justification where intended)"
    )

    def check(self, source: "Extractor") -> Iterator[Finding]:
        module, config = source.parsed, source.config
        if not module.in_package(config.service_packages):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    if arg.arg in config.identity_names:
                        yield self.finding(
                            module,
                            arg,
                            f"service-layer function `{node.name}` takes "
                            f"identity-bearing parameter `{arg.arg}`; the server "
                            "must not handle raw identities (or suppress with a "
                            "stated invariant)",
                        )
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    target: ast.expr | None = None
                    if isinstance(stmt, ast.AnnAssign):
                        target = stmt.target
                    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target = stmt.targets[0]
                    if isinstance(target, ast.Name) and target.id in config.identity_names:
                        yield self.finding(
                            module,
                            target,
                            f"service-layer record `{node.name}` declares "
                            f"identity-bearing field `{target.id}`; server-side "
                            "records must be keyed by hash(Ru, e) identifiers (or "
                            "suppress with a stated invariant)",
                        )


class TelemetryLabelRule(Rule):
    checker_id = "priv-telemetry-label"
    description = "identity-bearing value used as a telemetry label"
    rationale = (
        "metrics and spans are exported, merged, and plotted far from the "
        "upload path's unlinkability machinery; a user_id/device_id/secret in "
        "a label position republishes through the observability side channel "
        "exactly what hash(Ru, e) keying hides — labels may carry only entity "
        "categories, shard indices, and epoch numbers (docs/OBSERVABILITY.md)"
    )

    def check(self, source: "Extractor") -> Iterator[Finding]:
        module, config = source.parsed, source.config
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if func.attr not in config.telemetry_methods:
                continue
            if last_segment(func.value) not in config.telemetry_receivers:
                continue
            for keyword in node.keywords:
                if keyword.arg in config.telemetry_value_params:
                    continue
                label = keyword.arg if keyword.arg is not None else "**"
                for tainted_node, tainted in _iter_tainted(config, keyword.value):
                    yield self.finding(
                        module,
                        tainted_node,
                        f"identity-bearing `{tainted}` reaches telemetry label "
                        f"`{label}` on `{func.attr}(...)`; labels may carry only "
                        "entity categories, shard indices, and epoch numbers — "
                        "aggregate the value or drop the label",
                    )


# -------------------------------------------------------------- determinism

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


class _AmbientSourceRule(Rule):
    """Imports and resolved calls of an ambient entropy/time source,
    outside the modules sanctioned to wrap it."""

    def allowed_in(self, config: AnalysisConfig) -> frozenset[str]:
        return config.rng_modules

    def check(self, source: "Extractor") -> Iterator[Finding]:
        module = source.parsed
        if module.module in self.allowed_in(source.config):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                message = self.call_message(source.dotted(node.func))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                message = self.import_message(node)
            else:
                continue
            if message is not None:
                yield self.finding(module, node, message)

    def call_message(self, path: str | None) -> str | None:
        raise NotImplementedError

    def import_message(self, node: ast.Import | ast.ImportFrom) -> str | None:
        return None


class RandomModuleRule(_AmbientSourceRule):
    checker_id = "det-random-module"
    description = "stdlib `random` used outside repro.util.rng"
    rationale = (
        "stdlib random is process-global state; seeded numpy Generators from "
        "repro.util.rng keep every simulation stream label-derived and replayable"
    )

    def import_message(self, node: ast.Import | ast.ImportFrom) -> str | None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if in_package(alias.name, ("random",)):
                    return (
                        f"import of stdlib `{alias.name}`; draw from a seeded "
                        "Generator via repro.util.rng.make_rng instead"
                    )
        elif node.level == 0 and node.module and in_package(node.module, ("random",)):
            return f"import from stdlib `{node.module}`; use repro.util.rng instead"
        return None

    def call_message(self, path: str | None) -> str | None:
        if path is not None and in_package(path, ("random",)):
            return (
                f"call to `{path}` uses the global stdlib RNG; thread a seeded "
                "Generator from repro.util.rng through instead"
            )
        return None


class WallClockRule(_AmbientSourceRule):
    checker_id = "det-wall-clock"
    description = "wall-clock time read outside repro.util.clock"
    rationale = (
        "all timestamps are simulated seconds on a SimClock; reading real time "
        "makes runs depend on when they were launched and breaks the timing-"
        "attack benchmarks"
    )

    def allowed_in(self, config: AnalysisConfig) -> frozenset[str]:
        return config.clock_modules

    def call_message(self, path: str | None) -> str | None:
        if path in _WALL_CLOCK_CALLS:
            return (
                f"call to `{path}` reads the wall clock; use the shared SimClock "
                "from repro.util.clock instead"
            )
        return None


class NumpyRandomRule(_AmbientSourceRule):
    checker_id = "det-numpy-random"
    description = "direct numpy.random usage outside repro.util.rng"
    rationale = (
        "generators must be derived by label via repro.util.rng so adding a new "
        "consumer of randomness never perturbs existing streams"
    )

    def import_message(self, node: ast.Import | ast.ImportFrom) -> str | None:
        if not isinstance(node, ast.ImportFrom) or node.level != 0 or not node.module:
            return None
        if in_package(node.module, ("numpy.random",)):
            return (
                "import from numpy.random; build generators with "
                "repro.util.rng.make_rng instead"
            )
        if node.module == "numpy" and any(alias.name == "random" for alias in node.names):
            return (
                "import of numpy.random; build generators with "
                "repro.util.rng.make_rng instead"
            )
        return None

    def call_message(self, path: str | None) -> str | None:
        if path is not None and in_package(path, ("numpy.random",)):
            return (
                f"call to `{path}`; route all randomness through "
                "repro.util.rng (make_rng/derive_seed/children)"
            )
        return None


class _IterationOrderRule(Rule):
    """Service-layer iteration whose order must be made explicit.

    A call expression as the iterable (``sorted(...)`` in well-behaved
    code) establishes explicit order; subclasses decide which bare
    iterables follow hash order.
    """

    def check(self, source: "Extractor") -> Iterator[Finding]:
        module = source.parsed
        if not module.in_package(source.config.service_packages):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                iterables = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables = [generator.iter for generator in node.generators]
            else:
                continue
            for iterable in iterables:
                message = self.message_for(iterable)
                if message is not None:
                    yield self.finding(module, iterable, message)

    def message_for(self, iterable: ast.expr) -> str | None:
        raise NotImplementedError


class DirtyIterationRule(_IterationOrderRule):
    checker_id = "det-dirty-iteration"
    description = "dirty-entity set iterated in hash order in service code"
    rationale = (
        "incremental maintenance drains dirty sets into float reductions; "
        "Python sets iterate in hash order, so an unsorted loop would make "
        "summaries depend on intake interleaving and break the byte-identity "
        "contract between incremental and full recompute"
    )

    def message_for(self, iterable: ast.expr) -> str | None:
        name = last_segment(iterable)
        if name is not None and "dirty" in name.lower():
            return (
                f"iteration over `{name}` follows set hash order; wrap it in "
                "sorted() before any order-sensitive work"
            )
        return None


#: Store-view accessors that return raw (hash-ordered) entity-id sets.
_READ_SET_ACCESSORS = frozenset({"review_entities", "entities_with_histories"})


class ReadPathIterationRule(_IterationOrderRule):
    """Two shapes reach ranked output in hash order if left bare: the
    store views' raw-set accessors (plain ``set`` unions over shards) and
    ``candidate_ids``/``posting`` collections, which the serving layer
    promises to materialize in entity-id order."""

    checker_id = "det-read-path"
    description = "read-path set iterated in hash order in service code"
    rationale = (
        "the serving layer renders ranked output byte-identically across "
        "shard counts; store-view set accessors and candidate/posting "
        "collections iterate in hash order unless sorted, which would leak "
        "shard layout and insertion history into what users see"
    )

    def message_for(self, iterable: ast.expr) -> str | None:
        if isinstance(iterable, ast.Call):
            name = last_segment(iterable.func)
            if name in _READ_SET_ACCESSORS:
                return (
                    f"iteration over raw `{name}()` set follows hash order; "
                    "wrap the call in sorted() before any order-sensitive work"
                )
            return None
        name = last_segment(iterable)
        if name is None:
            return None
        lowered = name.lower()
        if "candidate_ids" in lowered or "posting" in lowered:
            return (
                f"bare iteration over `{name}` may follow hash order; "
                "iterate a sorted() materialization instead"
            )
        return None


# --------------------------------------------------- layering and containment


def _hits(target: str, prefixes: tuple[str, ...]) -> str | None:
    for prefix in prefixes:
        if in_package(target, (prefix,)):
            return prefix
    return None


class _ImportBoundaryRule(Rule):
    """Modules on one side of a boundary must not import the other side.
    One finding per import statement and forbidden package."""

    message: str = ""

    def applies(self, module: ParsedModule, config: AnalysisConfig) -> bool:
        raise NotImplementedError

    def forbidden(self, config: AnalysisConfig) -> tuple[str, ...]:
        raise NotImplementedError

    def check(self, source: "Extractor") -> Iterator[Finding]:
        module, config = source.parsed, source.config
        if not self.applies(module, config):
            return
        forbidden = self.forbidden(config)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            flagged: set[str] = set()
            for target in source.import_targets(node):
                hit = _hits(target, forbidden)
                if hit is not None and hit not in flagged:
                    flagged.add(hit)
                    yield self.finding(
                        module,
                        node,
                        self.message.format(module=module.module, target=target),
                    )


class ClientImportsServiceRule(_ImportBoundaryRule):
    checker_id = "layer-client-service"
    description = "device-side code imports the service layer"
    rationale = (
        "raw sensed data stays on the device (Section 3); a client importing "
        "server internals can bypass the sanitized upload protocol"
    )
    message = (
        "device-side module `{module}` imports `{target}`; clients talk to the "
        "service only through the wire protocol (repro.core.protocol)"
    )

    def applies(self, module: ParsedModule, config: AnalysisConfig) -> bool:
        return module.in_package(config.client_packages)

    def forbidden(self, config: AnalysisConfig) -> tuple[str, ...]:
        return config.service_packages


class ServiceImportsClientRule(_ImportBoundaryRule):
    checker_id = "layer-service-client"
    description = "service layer imports device-side code"
    rationale = (
        "the server must be unable to observe pre-sanitization data; only "
        "repro.orchestration may wire both sides together"
    )
    message = (
        "service-layer module `{module}` imports `{target}`; move cross-layer "
        "orchestration into repro.orchestration"
    )

    def applies(self, module: ParsedModule, config: AnalysisConfig) -> bool:
        return module.in_package(config.service_packages)

    def forbidden(self, config: AnalysisConfig) -> tuple[str, ...]:
        return config.client_packages


class FaultsOnlyInHarnessRule(_ImportBoundaryRule):
    """Production layers receive faults through duck-typed ``fault_hook``
    attributes set by the experiment drivers; importing the fault plan
    would let them special-case (or "know" about) injected failures."""

    checker_id = "faults-only-in-harness"
    description = "production code imports the fault-injection subsystem"
    rationale = (
        "fault realism: production layers must not observe or special-case "
        "injected faults; only the experiment harness wires fault_hook"
    )
    message = (
        "module `{module}` imports `{target}`; fault injection is wired from "
        "the harness (repro.orchestration / repro.cli) via duck-typed "
        "fault_hook attributes — production code must not import repro.faults"
    )

    def applies(self, module: ParsedModule, config: AnalysisConfig) -> bool:
        return module.in_package(config.fault_guarded_packages) and not (
            module.in_package(config.fault_harness_packages)
        )

    def forbidden(self, config: AnalysisConfig) -> tuple[str, ...]:
        return config.fault_packages


# --------------------------------------------------------------- durability


def _position(node: ast.AST) -> tuple[int, int]:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


class FsyncBeforeAckRule(Rule):
    """Two checks behind one rule id: in service-layer code a function
    that both appends to the WAL and commits an acceptance must append
    first; in ``repro.durability`` a function that writes a WAL file
    handle must also flush/fsync/sync it."""

    checker_id = "durability-fsync-before-ack"
    description = "acceptance commit precedes (or lacks) the durable WAL append"
    rationale = (
        "crash safety: an envelope acknowledged before its mutation is "
        "journaled-and-flushed is lost by a crash between the two steps, "
        "violating the recovery == uninterrupted-run differential"
    )
    ordering_message = (
        "acceptance commit (`{commit}`) precedes the WAL append "
        "(`{append}` on line {append_line}); journal the mutation first — "
        "WAL-before-ack is the crash-recovery contract"
    )
    flush_message = (
        "function `{function}` writes to `{receiver}` without a "
        "flush/fsync/sync call; a buffered WAL write is not durable"
    )

    def check(self, source: "Extractor") -> Iterator[Finding]:
        module, config = source.parsed, source.config
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if module.in_package(config.service_packages):
            for function in functions:
                yield from self._check_ordering(module, config, function)
        if module.in_package(config.durability_packages):
            for function in functions:
                yield from self._check_flush(module, config, function)

    def _check_ordering(
        self, module: ParsedModule, config: AnalysisConfig, function: ast.AST
    ) -> Iterator[Finding]:
        appends: list[tuple[tuple[int, int], str, ast.AST]] = []
        commits: list[tuple[tuple[int, int], str, ast.AST]] = []
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                receiver = last_segment(node.func.value)
                if method in config.wal_append_methods and receiver in config.wal_receivers:
                    appends.append((_position(node), method, node))
                elif method == "add" and receiver in config.accept_commit_sets:
                    commits.append((_position(node), f"{receiver}.add", node))
                elif method in config.accept_commit_calls:
                    commits.append((_position(node), method, node))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in config.accept_commit_calls:
                    commits.append((_position(node), node.func.id, node))
            elif isinstance(node, ast.AugAssign):
                name = last_segment(node.target)
                if name in config.accept_commit_counters:
                    commits.append((_position(node), f"{name} += ...", node))
        if not appends or not commits:
            return
        first_append = min(appends)
        first_commit = min(commits)
        if first_commit[0] < first_append[0]:
            yield self.finding(
                module,
                first_commit[2],
                self.ordering_message.format(
                    commit=first_commit[1],
                    append=first_append[1],
                    append_line=first_append[0][0],
                ),
                detail=f"order:{first_commit[1]}:{first_append[1]}",
            )

    def _check_flush(
        self, module: ParsedModule, config: AnalysisConfig, function: ast.AST
    ) -> Iterator[Finding]:
        writes: list[tuple[str, ast.AST]] = []
        flushed = False
        for node in ast.walk(function):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = last_segment(node.func.value)
            if node.func.attr == "write" and receiver in config.wal_file_receivers:
                writes.append((receiver, node))
            elif node.func.attr in {"flush", "fsync", "sync"}:
                flushed = True
        if writes and not flushed:
            receiver, node = writes[0]
            yield self.finding(
                module,
                node,
                self.flush_message.format(function=function.name, receiver=receiver),
            )


#: Every per-file rule, in reporting order.
RULES: tuple[Rule, ...] = (
    SinkTaintRule(),
    ServerIdentityRule(),
    TelemetryLabelRule(),
    RandomModuleRule(),
    WallClockRule(),
    NumpyRandomRule(),
    DirtyIterationRule(),
    ReadPathIterationRule(),
    ClientImportsServiceRule(),
    ServiceImportsClientRule(),
    FaultsOnlyInHarnessRule(),
    FsyncBeforeAckRule(),
)
