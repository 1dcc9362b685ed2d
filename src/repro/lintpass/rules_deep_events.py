"""Deep bus-vocabulary closure over the control-plane event graph.

The control plane's contract is that :mod:`repro.control.events` is the
complete vocabulary of decision kinds — figure code, the trace differ,
and the resilience analyzer all dispatch on those constants, and an
event emitted with an ad-hoc kind silently falls through every
``of_kind`` query. This analysis seeds at every ``DecisionEvent``
construction, resolves the kind expression through local dataflow and
module constants, and runs a forwarder fixpoint backwards through the
call graph — so emission helpers (``emit``/``_emit``/
``_resize_tier_threads`` or anything else that forwards a ``kind``
parameter) are discovered automatically instead of by name. On top of
the resolved publisher/subscriber graph it checks four closure
properties:

1. kinds reaching a ``DecisionEvent`` (as a literal or through any
   helper chain) but undeclared in :mod:`repro.control.events`;
2. declared kinds that are never emitted and never consumed (dead
   vocabulary);
3. handler subscriptions — ``event.kind == X`` comparisons on
   ``DecisionEvent``-annotated values — matching kinds nothing
   publishes;
4. ``ControllerSpec.decision_kinds`` declarations diverging (either
   direction) from what the controller's class chain actually emits.

Kinds belonging to the shared decision loop (``POLICY_KINDS`` and
``RECOVERY_KINDS``) are exempt from the per-controller declaration
contract — every controller inherits them from the base tick and the
fault-aware mixin.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lintpass.base import Rule, Violation, register
from repro.lintpass.project import (
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    SourceFile,
    dotted_name,
)

__all__ = [
    "EmissionRecord",
    "BusGraph",
    "bus_graph",
    "DeepBusVocabularyRule",
]

#: module whose top-level string constants define the vocabulary
_EVENTS_MODULE = "repro.control.events"

#: vocabulary subsets every controller inherits from the shared loop.
_EXEMPT_GROUPS = ("POLICY_KINDS", "RECOVERY_KINDS")

#: fixpoint bound on helper-forwarding depth.
_MAX_FORWARD_DEPTH = 6


@dataclass(frozen=True)
class EmissionRecord:
    """One proven event emission: a kind string and where it was proven."""

    kind: str
    file: SourceFile
    line: int
    col: int
    #: enclosing class at the proving site (kind attribution for the
    #: per-controller divergence check)
    cls: str | None


@dataclass(frozen=True)
class ConsumptionRecord:
    """One kind a handler matches against (``event.kind == X``)."""

    kind: str
    file: SourceFile
    line: int
    col: int


@dataclass(frozen=True)
class BusGraph:
    """The resolved publisher/subscriber view of the tree."""

    emissions: tuple[EmissionRecord, ...]
    consumptions: tuple[ConsumptionRecord, ...]
    #: False when some emission site could not be fully resolved — the
    #: emitted-kind set is then a lower bound and absence proofs
    #: (never-emits) are off the table.
    complete: bool

    def emitted_kinds(self) -> frozenset[str]:
        return frozenset(r.kind for r in self.emissions)

    def consumed_kinds(self) -> frozenset[str]:
        return frozenset(r.kind for r in self.consumptions)


def _call_simple_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return ""


def _is_row_replay(call: ast.Call) -> bool:
    """``DecisionEvent(*row)``: a stored event rebuilt from its fields.

    Its kind was proven where the event was first built; the replay
    publishes nothing, so it is no emission site.
    """
    return (
        not call.keywords
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Starred)
    )


class _DynamicBinding:
    """Sentinel: the call site binds ``param`` through ``*args`` or
    ``**kwargs``, so the bound value is statically unknowable — distinct
    from ``None`` (the parameter's default applies)."""


_DYNAMIC = _DynamicBinding()


def _bind_argument(
    call: ast.Call, params: tuple[str, ...], param: str
) -> ast.expr | _DynamicBinding | None:
    """The expression a call binds to ``param``.

    Returns the bound expression, :data:`_DYNAMIC` when ``*args`` or
    ``**kwargs`` make the binding unresolvable (anything could bind),
    or ``None`` when the parameter's default applies at this site.
    """
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if any(keyword.arg is None for keyword in call.keywords):
        return _DYNAMIC  # **kwargs — anything could bind
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return _DYNAMIC
    if param in params:
        position = params.index(param)
        if position < len(call.args):
            return call.args[position]
    return None


def _param_default(
    func: ast.FunctionDef | ast.AsyncFunctionDef, param: str
) -> ast.expr | None:
    """The default expression of ``param``, or None if it has none."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    offset = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional):
        if arg.arg == param:
            if position >= offset:
                return args.defaults[position - offset]
            return None
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == param:
            return default
    return None


def bus_graph(index: ProjectIndex) -> BusGraph:
    """Resolve every DecisionEvent emission and kind consumption."""
    callers = index.callers()
    emissions: list[EmissionRecord] = []
    complete = True

    def resolve_kind(
        expr: ast.expr,
        file: SourceFile,
        func: FunctionInfo | None,
        visited: frozenset[tuple[str, str]],
        depth: int,
        owner: str | None = None,
    ) -> None:
        nonlocal complete
        flow = index.flow(func) if func is not None else None
        resolved = index.resolve_value(expr, file, flow)
        if not resolved.exact and not resolved.params:
            complete = False
        cls = owner if owner is not None else (
            func.cls if func is not None else None
        )
        for value in resolved.values:
            if isinstance(value, str):
                emissions.append(
                    EmissionRecord(
                        kind=value,
                        file=file,
                        line=expr.lineno,
                        col=expr.col_offset,
                        cls=cls,
                    )
                )
        for param in resolved.params:
            if func is None or depth <= 0:
                complete = False
                continue
            key = (func.qualname, param)
            if key in visited:
                continue
            sites = callers.get(func.qualname, [])
            if not sites:
                # A param-carrying emitter whose callers the graph could
                # not resolve contributes an unknown kind set; absence
                # proofs are off the table.
                complete = False
                continue
            default_applies = False
            for caller_file, caller_func, call in sites:
                argument = _bind_argument(call, func.params, param)
                if isinstance(argument, _DynamicBinding):
                    complete = False
                    continue
                if argument is None:
                    default_applies = True
                    continue
                resolve_kind(
                    argument,
                    caller_file,
                    caller_func,
                    visited | {key},
                    depth - 1,
                )
            if default_applies:
                default = _param_default(func.node, param)
                if default is None:
                    complete = False  # required param left unbound
                else:
                    # Defaults evaluate at module scope — resolve with
                    # no enclosing flow so same-named locals can't leak,
                    # but attribute the kind to the helper's class.
                    resolve_kind(
                        default, func.file, None,
                        visited=visited | {key}, depth=depth - 1,
                        owner=func.cls,
                    )

    for file in index.files:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            enclosing = index.enclosing_function(file, node)
            target = index.resolve_call(file, enclosing, node)
            is_ctor = (
                isinstance(target, ClassInfo)
                and target.name == "DecisionEvent"
            ) or (
                target is None
                and _call_simple_name(node) == "DecisionEvent"
            )
            if not is_ctor or _is_row_replay(node):
                continue
            kind_expr: ast.expr | None = None
            for keyword in node.keywords:
                if keyword.arg == "kind":
                    kind_expr = keyword.value
            if kind_expr is None and len(node.args) > 1:
                kind_expr = node.args[1]  # DecisionEvent(time, kind, ...)
            if kind_expr is None:
                complete = False
                continue
            resolve_kind(
                kind_expr, file, enclosing,
                visited=frozenset(), depth=_MAX_FORWARD_DEPTH,
            )

    consumptions = _consumptions(index)
    return BusGraph(
        emissions=tuple(emissions),
        consumptions=tuple(consumptions),
        complete=complete,
    )


def _decision_event_params(func: ast.FunctionDef | ast.AsyncFunctionDef,
                           file: SourceFile) -> set[str]:
    """Parameter names annotated as DecisionEvent."""
    names: set[str] = set()
    for arg in (*func.args.posonlyargs, *func.args.args,
                *func.args.kwonlyargs):
        if arg.annotation is None:
            continue
        dotted = dotted_name(arg.annotation, file.aliases)
        if dotted is not None and dotted.split(".")[-1] == "DecisionEvent":
            names.add(arg.arg)
    return names


def _consumptions(index: ProjectIndex) -> list[ConsumptionRecord]:
    """Kinds compared against ``<DecisionEvent>.kind`` anywhere."""
    records: list[ConsumptionRecord] = []
    for func in index.functions.values():
        file = func.file
        typed = _decision_event_params(func.node, file)
        if func.cls == "DecisionEvent":
            typed = typed | {"self"}
        if not typed:
            continue
        flow = index.flow(func)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Compare):
                continue
            left = node.left
            if not (
                isinstance(left, ast.Attribute)
                and left.attr == "kind"
                and isinstance(left.value, ast.Name)
                and left.value.id in typed
            ):
                continue
            if not all(
                isinstance(op, (ast.Eq, ast.In)) for op in node.ops
            ):
                continue
            for comparator in node.comparators:
                resolved = index.resolve_value(comparator, file, flow)
                for value in resolved.values:
                    if isinstance(value, str):
                        records.append(
                            ConsumptionRecord(
                                kind=value,
                                file=file,
                                line=comparator.lineno,
                                col=comparator.col_offset,
                            )
                        )
    return records


def _declared_vocabulary(
    index: ProjectIndex,
) -> tuple[SourceFile | None, dict[str, tuple[int, int]]]:
    """kind -> declaration position, from the events module."""
    file = next(
        (f for f in index.files if f.module == _EVENTS_MODULE), None
    )
    declared: dict[str, tuple[int, int]] = {}
    if file is None:
        return None, declared
    for node in file.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if any(
            isinstance(t, ast.Name) and t.id.startswith("__")
            for t in node.targets
        ):
            continue  # __all__ and friends list names, not kinds
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            declared.setdefault(value.value, (node.lineno, node.col_offset))
        elif isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    declared.setdefault(
                        element.value, (element.lineno, element.col_offset)
                    )
    return file, declared


def _exempt_kinds(index: ProjectIndex) -> frozenset[str]:
    constants = index.module_constants(_EVENTS_MODULE)
    exempt: set[str] = set()
    for group in _EXEMPT_GROUPS:
        value = constants.get(group)
        if isinstance(value, tuple):
            exempt.update(v for v in value if isinstance(v, str))
    return frozenset(exempt)


@register
class DeepBusVocabularyRule(Rule):
    """Whole-program closure of the decision-event vocabulary."""

    id = "deep-bus-vocabulary"
    summary = ("event vocabulary closure: undeclared emitted kinds, dead "
               "kinds, publisher-less handlers, decision_kinds divergence")

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        events_file, declared = _declared_vocabulary(index)
        if events_file is None:
            return  # nothing to close over in this tree
        graph = bus_graph(index)
        emitted = graph.emitted_kinds()
        consumed = graph.consumed_kinds()

        # 1. emitted (literally or via helpers) but undeclared.
        reported: set[tuple[str, str, int]] = set()
        for record in graph.emissions:
            if record.kind in declared:
                continue
            key = (record.file.path, record.kind, record.line)
            if key in reported:
                continue
            reported.add(key)
            yield self.violation(
                record.file.path, record.line, record.col,
                f"event kind {record.kind!r} reaches a DecisionEvent but "
                "is not declared in repro.control.events; of_kind() "
                "queries will never see it",
            )

        # 2. declared but never emitted nor consumed: dead vocabulary.
        for kind in sorted(declared):
            if kind in emitted or kind in consumed:
                continue
            line, col = declared[kind]
            yield self.violation(
                events_file.path, line, col,
                f"declared event kind {kind!r} is never emitted and never "
                "matched by any handler; dead vocabulary entries hide "
                "missing instrumentation",
            )

        # 3. handler matches a kind nothing publishes. Only provable
        # when every emission site resolved (absence proofs need the
        # full emitted set).
        seen_consumption: set[tuple[str, str, int]] = set()
        for record in graph.consumptions if graph.complete else ():
            if record.kind in emitted:
                continue
            key = (record.file.path, record.kind, record.line)
            if key in seen_consumption:
                continue
            seen_consumption.add(key)
            yield self.violation(
                record.file.path, record.line, record.col,
                f"handler matches event kind {record.kind!r} but no "
                "publisher in the tree emits it; the branch is dead",
            )

        # 4. ControllerSpec.decision_kinds divergence.
        yield from self._check_controller_specs(index, graph)

    # ------------------------------------------------------------------
    def _check_controller_specs(
        self, index: ProjectIndex, graph: BusGraph
    ) -> Iterator[Violation]:
        exempt = _exempt_kinds(index)
        for file in index.files:
            for node in ast.walk(file.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _call_simple_name(node) == "register_controller"
                    and node.args
                ):
                    continue
                spec = node.args[0]
                if not (
                    isinstance(spec, ast.Call)
                    and _call_simple_name(spec) == "ControllerSpec"
                ):
                    continue
                yield from self._check_one_spec(
                    index, graph, file, spec, exempt
                )

    def _check_one_spec(
        self,
        index: ProjectIndex,
        graph: BusGraph,
        file: SourceFile,
        spec: ast.Call,
        exempt: frozenset[str],
    ) -> Iterator[Violation]:
        name = "?"
        declared: set[str] = set()
        declared_exact = True
        factory_expr: ast.expr | None = None
        for keyword in spec.keywords:
            if keyword.arg == "name":
                resolved = index.resolve_value(keyword.value, file)
                for value in resolved.values:
                    if isinstance(value, str):
                        name = value
            elif keyword.arg == "decision_kinds":
                resolved = index.resolve_value(keyword.value, file)
                declared = {
                    v for v in resolved.values if isinstance(v, str)
                }
                declared_exact = resolved.exact
            elif keyword.arg == "factory":
                factory_expr = keyword.value
        if factory_expr is None:
            return
        chain_names = self._controller_chain(index, file, factory_expr)
        if not chain_names:
            return  # factory body not statically resolvable
        chain_emitted = {
            record.kind
            for record in graph.emissions
            if record.cls is not None and record.cls in chain_names
        }
        under = sorted(chain_emitted - declared - exempt)
        for kind in under:
            yield self.violation(
                file.path, spec.lineno, spec.col_offset,
                f"controller {name!r} emits decision kind {kind!r} but "
                "does not declare it in decision_kinds; `repro "
                "controllers` and trace tooling under-report the "
                "framework",
            )
        if graph.complete and declared_exact:
            over = sorted(declared - chain_emitted - exempt)
            for kind in over:
                yield self.violation(
                    file.path, spec.lineno, spec.col_offset,
                    f"controller {name!r} declares decision kind {kind!r} "
                    "but no method in its class chain ever emits it; the "
                    "declaration overstates the framework's trace",
                )

    @staticmethod
    def _controller_chain(
        index: ProjectIndex, file: SourceFile, factory_expr: ast.expr
    ) -> frozenset[str]:
        """Class names of every class the factory constructs, plus
        their base chains — the set a controller's emissions may be
        attributed to."""
        dotted = dotted_name(factory_expr, file.aliases)
        if dotted is None:
            return frozenset()
        factory = index.functions.get(dotted)
        if factory is None:
            factory = index.functions.get(f"{file.module}.{dotted}")
        if factory is None:
            return frozenset()
        names: set[str] = set()
        for node in ast.walk(factory.node):
            if not isinstance(node, ast.Call):
                continue
            target = index.resolve_call(
                factory.file, factory, node
            )
            if isinstance(target, ClassInfo):
                for info in index.class_chain(target):
                    names.add(info.name)
        return frozenset(names)
