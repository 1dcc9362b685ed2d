"""The parsed view of a source tree that rules walk.

A :class:`ProjectIndex` holds every parsed file plus the cross-file
indices the rules need:

* per-file **import alias maps** so ``np.random.default_rng`` resolves
  to ``numpy.random.default_rng`` whatever the local spelling;
* a **class index** (simple name -> definitions) so digest provenance
  can collect inherited dataclass fields and inherited digest methods;
* **module names** derived from the path's ``repro`` component, so a
  fixture tree ``fixtures/case/repro/sim/x.py`` is linted under the
  same package-scoped rules as the real ``src/repro/sim/x.py``.

The ``deep-*`` analyses additionally use the whole-program layer
built lazily on top of the parsed files:

* a **function index** (:class:`FunctionInfo`, qualified-name keyed)
  covering every function and method in the tree;
* an alias-aware **call graph** (:meth:`ProjectIndex.callees`):
  ``self.helper()`` resolves through the class chain, ``mod.func()``
  through the import aliases, bare names within the module, and
  ``ClassName(...)`` to the constructed class;
* a per-function **dataflow index** (:class:`FunctionFlow`) over local
  assignments and returns, plus per-module **constant maps** resolving
  ``NAME = "literal"``, tuples of such, references between constants
  and tuple-unpacking — enough to answer "which strings can this
  expression be?" without executing anything.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.errors import LintError
from repro.lintpass.base import parse_suppressions

__all__ = [
    "SourceFile",
    "ClassInfo",
    "FunctionInfo",
    "FunctionFlow",
    "ResolvedValue",
    "ProjectIndex",
    "dotted_name",
]


def module_name(path: str) -> str:
    """Dotted module name of a file, rooted at its ``repro`` component.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``; a fixture tree
    ``tests/lintpass/fixtures/r2/repro/sim/bad.py`` -> ``repro.sim.bad``
    (so package-scoped rules apply to fixtures exactly as they do to the
    real source). Files outside any ``repro`` directory lint under
    their bare stem.
    """
    parts = os.path.normpath(path).split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        root = len(parts) - 2 - parts[-2::-1].index("repro")
        packages = parts[root:-1]
    else:
        packages = []
    if stem == "__init__":
        return ".".join(packages) if packages else stem
    return ".".join((*packages, stem)) if packages else stem


def _alias_map(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> dotted origin, from every import in the file."""
    aliases: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                # `import numpy.random` binds `numpy`; `import numpy.random
                # as npr` binds `npr` to the full dotted path.
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb from this file's package.
                climb = package.split(".") if package else []
                climb = climb[: max(0, len(climb) - (node.level - 1))]
                base = ".".join((*climb, base)) if base else ".".join(climb)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


def dotted_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve an attribute chain to a dotted path via the alias map.

    ``np.random.default_rng`` with ``{"np": "numpy"}`` ->
    ``"numpy.random.default_rng"``. Chains rooted at anything other
    than a plain name (calls, subscripts) resolve to ``None``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file plus its lint-relevant derived data."""

    path: str
    module: str
    source: str
    tree: ast.Module
    aliases: dict[str, str]
    suppressed: dict[int, frozenset[str]]
    #: child node -> parent node, for the rules that need context
    #: ("is this listdir call directly inside sorted()?").
    parents: dict[ast.AST, ast.AST]

    def in_package(self, *packages: str) -> bool:
        """True when this file's module sits inside any given package."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in packages
        )

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        return rule_id in self.suppressed.get(line, ())


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: where it lives and what the rules need."""

    name: str
    file: SourceFile
    node: ast.ClassDef
    is_dataclass: bool
    #: ``@dataclass(frozen=True)`` — instances carry identity guarantees
    is_frozen: bool
    #: own dataclass fields, in declaration order (ClassVars excluded)
    fields: tuple[str, ...]
    #: per-field annotation nodes, for digest-closure walking
    field_annotations: tuple[tuple[str, ast.expr], ...]
    #: base-class simple names, for index lookup
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else (
        target.id if isinstance(target, ast.Name) else ""
    )
    return name == "dataclass"


def _is_frozen_decorator(node: ast.expr) -> bool:
    if not (isinstance(node, ast.Call) and _is_dataclass_decorator(node)):
        return False
    return any(
        kw.arg == "frozen"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in node.keywords
    )


def _class_info(file: SourceFile, node: ast.ClassDef) -> ClassInfo:
    fields: list[str] = []
    annotations: list[tuple[str, ast.expr]] = []
    methods: dict[str, ast.FunctionDef] = {}
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            annotation = ast.dump(item.annotation)
            if "ClassVar" not in annotation:
                fields.append(item.target.id)
                annotations.append((item.target.id, item.annotation))
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = item  # type: ignore[assignment]
    bases = tuple(
        base.attr if isinstance(base, ast.Attribute) else base.id
        for base in node.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    )
    return ClassInfo(
        name=node.name,
        file=file,
        node=node,
        is_dataclass=any(
            _is_dataclass_decorator(d) for d in node.decorator_list
        ),
        is_frozen=any(_is_frozen_decorator(d) for d in node.decorator_list),
        fields=tuple(fields),
        field_annotations=tuple(annotations),
        bases=bases,
        methods=methods,
    )


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the tree."""

    #: ``repro.scaling.actuator.Actuator._emit`` (methods) or
    #: ``repro.experiments.runner.execute_spec`` (module level)
    qualname: str
    module: str
    name: str
    #: enclosing class simple name, or None for module-level functions
    cls: str | None
    file: SourceFile
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def params(self) -> tuple[str, ...]:
        """Positional-or-keyword parameter names, ``self``/``cls``
        excluded for methods (so positional argument indices at call
        sites line up without the receiver)."""
        args = self.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)]
        if self.cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        return tuple(names)


@dataclass(frozen=True)
class FunctionFlow:
    """Lightweight dataflow facts for one function body.

    ``assignments`` maps each locally bound name to every expression
    assigned to it anywhere in the body (conditional branches all
    contribute — the resolver unions over them). ``returns`` collects
    every returned expression.
    """

    assignments: dict[str, tuple[ast.expr, ...]]
    returns: tuple[ast.expr, ...]


@dataclass(frozen=True)
class ResolvedValue:
    """Outcome of resolving an expression to its possible values.

    ``values`` holds every literal the expression can evaluate to that
    the resolver could prove (strings/ints). ``params`` names enclosing-
    function parameters the value may flow from — callers of the
    function decide those. ``exact`` is False when some reaching value
    could not be resolved (the value set is then a lower bound).
    """

    values: frozenset[object] = frozenset()
    params: frozenset[str] = frozenset()
    exact: bool = True

    def merge(self, other: "ResolvedValue") -> "ResolvedValue":
        return ResolvedValue(
            values=self.values | other.values,
            params=self.params | other.params,
            exact=self.exact and other.exact,
        )


_UNRESOLVED = ResolvedValue(exact=False)

#: Recursion bound for value resolution through assignment chains.
_RESOLVE_DEPTH = 8


def function_flow(node: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionFlow:
    """Collect assignment and return facts for one function body.

    Nested functions contribute their assignments too (their locals
    cannot shadow observations the rules make — the rules only ask
    "what could this name hold?", and a superset answer stays sound
    for must-not-happen checks).
    """
    assignments: dict[str, list[ast.expr]] = {}

    def bind(target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            assignments.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # `a, b = SOME_TUPLE` — synthesise per-element subscripts so
            # `a` resolves to `SOME_TUPLE[0]` through the constant maps.
            for position, element in enumerate(target.elts):
                if not isinstance(element, ast.Name):
                    continue
                subscript = ast.Subscript(
                    value=value,
                    slice=ast.Constant(value=position),
                    ctx=ast.Load(),
                )
                ast.copy_location(subscript, value)
                assignments.setdefault(element.id, []).append(subscript)

    returns: list[ast.expr] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                bind(target, child.value)
        elif isinstance(child, ast.AnnAssign) and child.value is not None:
            bind(child.target, child.value)
        elif isinstance(child, ast.NamedExpr):
            bind(child.target, child.value)
        elif isinstance(child, ast.Return) and child.value is not None:
            returns.append(child.value)
    return FunctionFlow(
        assignments={k: tuple(v) for k, v in assignments.items()},
        returns=tuple(returns),
    )


class ProjectIndex:
    """Every parsed file of a lint run, plus the cross-file indices."""

    def __init__(self, files: list[SourceFile]) -> None:
        self.files = files
        self.classes: dict[str, list[ClassInfo]] = {}
        for file in files:
            for node in ast.walk(file.tree):
                if isinstance(node, ast.ClassDef):
                    info = _class_info(file, node)
                    self.classes.setdefault(info.name, []).append(info)
        # Deep-analysis layers, built on first use.
        self._functions: dict[str, FunctionInfo] | None = None
        self._functions_by_name: dict[str, list[FunctionInfo]] | None = None
        self._flows: dict[str, FunctionFlow] = {}
        self._constants: dict[str, dict[str, object]] = {}
        self._callers: (
            dict[str, list[tuple[SourceFile, FunctionInfo | None, ast.Call]]]
            | None
        ) = None

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, paths: list[str]) -> "ProjectIndex":
        """Parse every ``.py`` file under the given files/directories.

        Files are gathered in sorted order so reports (and digests of
        reports) are stable across filesystems. Unreadable or
        syntactically broken files abort the run with a
        :class:`~repro.errors.LintError` — a linter that silently skips
        what it cannot parse reports a clean pass it never performed.
        """
        collected: list[str] = []
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames.sort()
                    dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                    collected.extend(
                        os.path.join(dirpath, name)
                        for name in sorted(filenames)
                        if name.endswith(".py")
                    )
            elif os.path.isfile(path):
                collected.append(path)
            else:
                raise LintError(f"no such file or directory: {path!r}")
        files: list[SourceFile] = []
        for filepath in collected:
            try:
                with open(filepath, "r", encoding="utf-8") as fh:
                    source = fh.read()
            except OSError as exc:
                raise LintError(f"cannot read {filepath!r}: {exc}") from exc
            try:
                tree = ast.parse(source, filename=filepath)
            except SyntaxError as exc:
                raise LintError(f"cannot parse {filepath!r}: {exc}") from exc
            module = module_name(filepath)
            parents: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            files.append(
                SourceFile(
                    path=filepath,
                    module=module,
                    source=source,
                    tree=tree,
                    aliases=_alias_map(tree, module),
                    suppressed=parse_suppressions(source.splitlines()),
                    parents=parents,
                )
            )
        return cls(files)

    # ------------------------------------------------------------------
    def resolve_class(self, name: str) -> ClassInfo | None:
        """The definition of a class by simple name (first match)."""
        infos = self.classes.get(name)
        return infos[0] if infos else None

    def all_fields(self, info: ClassInfo) -> tuple[str, ...]:
        """Own + inherited dataclass fields (bases resolved by name
        within the index; unknown bases contribute nothing)."""
        seen: list[str] = []
        stack = [info]
        visited: set[str] = set()
        while stack:
            current = stack.pop()
            if current.name in visited:
                continue
            visited.add(current.name)
            seen.extend(f for f in current.fields if f not in seen)
            for base in current.bases:
                base_info = self.resolve_class(base)
                if base_info is not None:
                    stack.append(base_info)
        return tuple(seen)

    def resolve_method(
        self, info: ClassInfo, names: tuple[str, ...]
    ) -> ast.FunctionDef | None:
        """First method matching any name, searching the MRO-ish chain
        (the class, then its bases by simple name)."""
        stack = [info]
        visited: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current.name in visited:
                continue
            visited.add(current.name)
            for name in names:
                if name in current.methods:
                    return current.methods[name]
            for base in current.bases:
                base_info = self.resolve_class(base)
                if base_info is not None:
                    stack.append(base_info)
        return None

    def class_chain(self, info: ClassInfo) -> list[ClassInfo]:
        """The class and its in-index bases, MRO-ish order."""
        chain: list[ClassInfo] = []
        stack = [info]
        visited: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current.name in visited:
                continue
            visited.add(current.name)
            chain.append(current)
            for base in current.bases:
                base_info = self.resolve_class(base)
                if base_info is not None:
                    stack.append(base_info)
        return chain

    # ------------------------------------------------------------------
    # deep layer: function index
    # ------------------------------------------------------------------
    def _build_functions(self) -> None:
        functions: dict[str, FunctionInfo] = {}
        by_name: dict[str, list[FunctionInfo]] = {}

        def visit(
            file: SourceFile, node: ast.AST, cls: str | None
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(file, child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    prefix = f"{file.module}.{cls}." if cls else f"{file.module}."
                    info = FunctionInfo(
                        qualname=f"{prefix}{child.name}",
                        module=file.module,
                        name=child.name,
                        cls=cls,
                        file=file,
                        node=child,
                    )
                    # First definition wins on qualname collisions
                    # (overloads/redefinitions are rare and benign here).
                    functions.setdefault(info.qualname, info)
                    by_name.setdefault(child.name, []).append(info)
                    # Nested defs are indexed under the outer function's
                    # class context (close enough for call resolution).
                    visit(file, child, cls)
                else:
                    visit(file, child, cls)

        for file in self.files:
            visit(file, file.tree, None)
        self._functions = functions
        self._functions_by_name = by_name

    @property
    def functions(self) -> dict[str, FunctionInfo]:
        """Every function/method in the tree, keyed by qualified name."""
        if self._functions is None:
            self._build_functions()
        assert self._functions is not None
        return self._functions

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """Every function/method with the given simple name."""
        if self._functions_by_name is None:
            self._build_functions()
        assert self._functions_by_name is not None
        return self._functions_by_name.get(name, [])

    def flow(self, info: FunctionInfo) -> FunctionFlow:
        """The (cached) dataflow facts of one function."""
        cached = self._flows.get(info.qualname)
        if cached is None:
            cached = function_flow(info.node)
            self._flows[info.qualname] = cached
        return cached

    # ------------------------------------------------------------------
    # deep layer: alias-aware call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, file: SourceFile, caller: FunctionInfo | None, call: ast.Call
    ) -> FunctionInfo | ClassInfo | None:
        """The definition a call site invokes, when statically knowable.

        Handles, in order: ``self.method()`` through the enclosing
        class chain; dotted paths through the import aliases
        (``mod.func()``, ``pkg.mod.Class()``); bare names in the same
        module; class constructors anywhere in the index; and — as a
        last resort for attribute calls on objects of unknown type — a
        *unique* method name across all indexed classes. Returns None
        when the target is ambiguous or outside the tree.
        """
        func = call.func
        # self.method() / cls.method()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and caller is not None
            and caller.cls is not None
        ):
            info = self.resolve_class(caller.cls)
            if info is not None:
                for cls_info in self.class_chain(info):
                    if func.attr in cls_info.methods:
                        return self.functions.get(
                            f"{cls_info.file.module}.{cls_info.name}.{func.attr}"
                        )
            # Mixin host pattern: the method lives in a class that mixes
            # this one in (FaultAwareMixin calling self.emit, provided
            # by the controller host). Resolve when exactly one derived
            # chain defines it.
            hosts: list[FunctionInfo] = []
            for infos in self.classes.values():
                for candidate in infos:
                    chain = self.class_chain(candidate)
                    if caller.cls not in {c.name for c in chain}:
                        continue
                    for cls_info in chain:
                        if func.attr in cls_info.methods:
                            hit = self.functions.get(
                                f"{cls_info.file.module}."
                                f"{cls_info.name}.{func.attr}"
                            )
                            if hit is not None and hit not in hosts:
                                hosts.append(hit)
                            break
            if len(hosts) == 1:
                return hosts[0]
            return None
        dotted = dotted_name(func, file.aliases)
        if dotted is not None:
            # Fully qualified function (module.func) or method
            # (module.Class.method) or class constructor (module.Class).
            hit = self.functions.get(dotted)
            if hit is not None:
                return hit
            head, _, tail = dotted.rpartition(".")
            if head:
                for candidate in self.classes.get(tail, ()):  # constructor
                    if candidate.file.module == head or head.endswith(
                        f".{tail}"
                    ):
                        return candidate
            else:
                # Bare name: same-module function, else a class anywhere.
                local = self.functions.get(f"{file.module}.{dotted}")
                if local is not None:
                    return local
                cls = self.resolve_class(dotted)
                if cls is not None:
                    return cls
            return None
        if isinstance(func, ast.Attribute):
            # obj.method() with obj of unknown type: unique method name.
            owners = [
                f for f in self.functions_named(func.attr) if f.cls is not None
            ]
            if len(owners) == 1:
                return owners[0]
        return None

    def callers(
        self,
    ) -> dict[str, list[tuple[SourceFile, FunctionInfo | None, ast.Call]]]:
        """qualname -> every call site in the tree resolving to it."""
        if self._callers is None:
            callers: dict[
                str, list[tuple[SourceFile, FunctionInfo | None, ast.Call]]
            ] = {}
            for file in self.files:
                for node in ast.walk(file.tree):
                    if not isinstance(node, ast.Call):
                        continue
                    enclosing = self.enclosing_function(file, node)
                    target = self.resolve_call(file, enclosing, node)
                    if isinstance(target, FunctionInfo):
                        callers.setdefault(target.qualname, []).append(
                            (file, enclosing, node)
                        )
            self._callers = callers
        return self._callers

    def enclosing_function(
        self, file: SourceFile, node: ast.AST
    ) -> FunctionInfo | None:
        """The innermost indexed function containing ``node``."""
        current = file.parents.get(node)
        chain: list[ast.AST] = []
        while current is not None:
            chain.append(current)
            current = file.parents.get(current)
        for candidate in chain:
            if isinstance(candidate, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls = None
                for outer in chain[chain.index(candidate) + 1:]:
                    if isinstance(outer, ast.ClassDef):
                        cls = outer.name
                        break
                prefix = f"{file.module}.{cls}." if cls else f"{file.module}."
                info = self.functions.get(f"{prefix}{candidate.name}")
                if info is not None and info.node is candidate:
                    return info
                # Nested def: attribute the facts to any same-named
                # definition in the file (labels only, never resolution).
                for named in self.functions_named(candidate.name):
                    if named.node is candidate:
                        return named
        return None

    # ------------------------------------------------------------------
    # deep layer: module constants and value resolution
    # ------------------------------------------------------------------
    def module_constants(self, module: str) -> dict[str, object]:
        """Module-level literal constants of one module, resolved.

        Covers string/int literals, tuples/lists of them, references to
        other constants of the same module, and imported constants from
        other modules in the index. Unresolvable assignments are
        absent, never wrong.
        """
        cached = self._constants.get(module)
        if cached is not None:
            return cached
        self._constants[module] = {}  # cycle guard
        file = next((f for f in self.files if f.module == module), None)
        if file is None:
            return self._constants[module]
        values: dict[str, object] = {}

        def literal(expr: ast.expr, depth: int) -> object | None:
            if depth <= 0:
                return None
            if isinstance(expr, ast.Constant) and isinstance(
                expr.value, (str, int, float)
            ):
                return expr.value
            if isinstance(expr, (ast.Tuple, ast.List)):
                elements = [literal(e, depth - 1) for e in expr.elts]
                if all(e is not None for e in elements):
                    return tuple(elements)
                return None
            if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
                left = literal(expr.left, depth - 1)
                right = literal(expr.right, depth - 1)
                if isinstance(left, tuple) and isinstance(right, tuple):
                    return left + right
                return None
            if isinstance(expr, ast.Subscript):
                base = literal(expr.value, depth - 1)
                key = literal(expr.slice, depth - 1)
                if isinstance(base, tuple) and isinstance(key, int):
                    try:
                        return base[key]
                    except IndexError:
                        return None
                return None
            if isinstance(expr, (ast.Name, ast.Attribute)):
                dotted = dotted_name(expr, file.aliases)
                if dotted is None:
                    return None
                if "." not in dotted:
                    return values.get(dotted)
                origin, _, name = dotted.rpartition(".")
                if origin == module:
                    return values.get(name)
                foreign = self.module_constants(origin)
                return foreign.get(name)
            return None

        for node in file.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            resolved = literal(value, _RESOLVE_DEPTH)
            for target in targets:
                if isinstance(target, ast.Name) and resolved is not None:
                    values[target.id] = resolved
                elif (
                    isinstance(target, (ast.Tuple, ast.List))
                    and isinstance(resolved, tuple)
                    and len(target.elts) == len(resolved)
                ):
                    for element, item in zip(target.elts, resolved):
                        if isinstance(element, ast.Name):
                            values[element.id] = item
        self._constants[module] = values
        return values

    def resolve_value(
        self,
        expr: ast.expr,
        file: SourceFile,
        flow: FunctionFlow | None = None,
        depth: int = _RESOLVE_DEPTH,
        _seen: frozenset[str] | None = None,
    ) -> ResolvedValue:
        """Every literal an expression can evaluate to, best effort.

        Strings and ints resolve through conditional expressions (both
        arms), local assignment chains (union over all assignments),
        module constants, imported constants, and constant-index
        subscripts of known tuples. Parameters of the enclosing
        function surface in ``params`` so interprocedural analyses can
        continue resolution at call sites.
        """
        if depth <= 0:
            return _UNRESOLVED
        seen = _seen or frozenset()
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (str, int, float)):
                return ResolvedValue(values=frozenset((expr.value,)))
            return _UNRESOLVED
        if isinstance(expr, ast.IfExp):
            return self.resolve_value(
                expr.body, file, flow, depth - 1, seen
            ).merge(self.resolve_value(expr.orelse, file, flow, depth - 1, seen))
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = ResolvedValue()
            for element in expr.elts:
                out = out.merge(
                    self.resolve_value(element, file, flow, depth - 1, seen)
                )
            return out
        if isinstance(expr, ast.Subscript):
            base = self.resolve_value(expr.value, file, flow, depth - 1, seen)
            key = self.resolve_value(expr.slice, file, flow, depth - 1, seen)
            values: set[object] = set()
            exact = base.exact and key.exact and not base.params
            for container in base.values:
                if not isinstance(container, tuple):
                    exact = False
                    continue
                for index in key.values:
                    if isinstance(index, int):
                        try:
                            values.add(container[index])
                        except IndexError:
                            exact = False
                    else:
                        exact = False
            return ResolvedValue(values=frozenset(values), exact=exact)
        if isinstance(expr, ast.Name):
            name = expr.id
            if flow is not None and name in flow.assignments:
                if name in seen:
                    return _UNRESOLVED
                out = ResolvedValue()
                for assigned in flow.assignments[name]:
                    out = out.merge(
                        self.resolve_value(
                            assigned, file, flow, depth - 1, seen | {name}
                        )
                    )
                return out
            constants = self.module_constants(file.module)
            if name in constants:
                return ResolvedValue(values=frozenset((constants[name],)))
            dotted = file.aliases.get(name)
            if dotted is not None and "." in dotted:
                origin, _, attr = dotted.rpartition(".")
                foreign = self.module_constants(origin)
                if attr in foreign:
                    return ResolvedValue(values=frozenset((foreign[attr],)))
            # Possibly a parameter of the enclosing function: report it
            # as a flow source and let interprocedural callers resolve.
            return ResolvedValue(params=frozenset((name,)), exact=False)
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr, file.aliases)
            if dotted is not None and "." in dotted:
                origin, _, attr = dotted.rpartition(".")
                foreign = self.module_constants(origin)
                if attr in foreign:
                    return ResolvedValue(values=frozenset((foreign[attr],)))
            return _UNRESOLVED
        return _UNRESOLVED
