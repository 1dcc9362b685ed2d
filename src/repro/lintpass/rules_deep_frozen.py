"""Interprocedural frozen-instance mutation tracking.

Frozen dataclasses carry the repo's identity guarantees (spec digests,
event records). Bypassing the freeze after construction mutates a value
other code has already hashed or cached; the one legitimate site is
``__post_init__`` normalisation, before the object escapes. This rule
flags every ``object.__setattr__`` outside that site, and follows the
flow a per-line scan cannot:

* **aliases** — ``mut = object.__setattr__; mut(spec, ...)`` spells the
  bypass without the dotted name;
* **setattr on provably frozen values** — ``setattr(spec, ...)`` where
  ``spec`` was constructed from a frozen dataclass, flows through a
  local alias, or arrives as a parameter annotated with a frozen class
  (at runtime this raises ``FrozenInstanceError``; statically it marks
  a mutation the author believed legal);
* **``__post_init__`` helpers** — a normalisation helper whose only
  call sites are ``__post_init__`` methods is the legitimate pattern;
  the rule resolves the callers and stays quiet.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintpass.base import Rule, Violation, register
from repro.lintpass.project import (
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    SourceFile,
    dotted_name,
)

__all__ = ["DeepFrozenFlowRule"]

_BYPASS = "object.__setattr__"

#: How far up the caller chain a helper may sit from __post_init__.
_HELPER_DEPTH = 2


@register
class DeepFrozenFlowRule(Rule):
    """Frozen-instance mutation through aliases and helper calls."""

    id = "deep-frozen-flow"
    summary = ("frozen-instance mutation via aliased object.__setattr__, "
               "setattr on a provably frozen value, or a helper not "
               "rooted in __post_init__")

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for file in index.files:
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                enclosing = index.enclosing_function(file, node)
                yield from self._check_call(index, file, enclosing, node)

    # ------------------------------------------------------------------
    def _check_call(
        self,
        index: ProjectIndex,
        file: SourceFile,
        enclosing: FunctionInfo | None,
        call: ast.Call,
    ) -> Iterator[Violation]:
        resolved = dotted_name(call.func, file.aliases)
        if resolved == _BYPASS:
            if not self._post_init_rooted(index, enclosing, _HELPER_DEPTH):
                yield self.violation(
                    file.path, call.lineno, call.col_offset,
                    "object.__setattr__ on a frozen object outside "
                    "__post_init__ (no caller path is __post_init__-"
                    "rooted) mutates already-hashed state",
                )
            return
        # Aliased bypass: the callee name was bound to object.__setattr__.
        if isinstance(call.func, ast.Name) and self._aliases_bypass(
            index, file, enclosing, call.func.id
        ):
            yield self.violation(
                file.path, call.lineno, call.col_offset,
                f"{call.func.id!r} aliases object.__setattr__; the frozen "
                "bypass is still a mutation of already-hashed state",
            )
            return
        # setattr(obj, ...) on a provably frozen value.
        if (
            isinstance(call.func, ast.Name)
            and call.func.id == "setattr"
            and call.args
        ):
            frozen = self._frozen_provenance(
                index, file, enclosing, call.args[0], depth=4
            )
            if frozen is not None:
                yield self.violation(
                    file.path, call.lineno, call.col_offset,
                    f"setattr on an instance of frozen dataclass "
                    f"{frozen.name!r}; this raises FrozenInstanceError at "
                    "runtime — use dataclasses.replace for a new value",
                )

    # ------------------------------------------------------------------
    def _post_init_rooted(
        self,
        index: ProjectIndex,
        func: FunctionInfo | None,
        depth: int,
    ) -> bool:
        """True when every caller path of ``func`` begins in
        ``__post_init__`` — the legitimate normalisation-helper shape."""
        if func is None:
            return False
        if func.name == "__post_init__":
            return True
        if depth <= 0:
            return False
        sites = index.callers().get(func.qualname, [])
        if not sites:
            return False
        return all(
            self._post_init_rooted(index, caller, depth - 1)
            for _, caller, _ in sites
        )

    def _aliases_bypass(
        self,
        index: ProjectIndex,
        file: SourceFile,
        enclosing: FunctionInfo | None,
        name: str,
    ) -> bool:
        if enclosing is not None:
            flow = index.flow(enclosing)
            for assigned in flow.assignments.get(name, ()):
                if dotted_name(assigned, file.aliases) == _BYPASS:
                    return True
        for node in file.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets
            ) and dotted_name(node.value, file.aliases) == _BYPASS:
                return True
        return False

    def _frozen_provenance(
        self,
        index: ProjectIndex,
        file: SourceFile,
        enclosing: FunctionInfo | None,
        expr: ast.expr,
        depth: int,
        _seen: frozenset[str] = frozenset(),
    ) -> ClassInfo | None:
        """The frozen dataclass ``expr`` provably holds, or None."""
        if depth <= 0:
            return None
        if isinstance(expr, ast.Call):
            target = index.resolve_call(file, enclosing, expr)
            if (
                isinstance(target, ClassInfo)
                and target.is_dataclass
                and target.is_frozen
            ):
                return target
            return None
        if not isinstance(expr, ast.Name):
            return None
        name = expr.id
        if name in _seen:
            return None
        if name == "self" and enclosing is not None and enclosing.cls:
            info = index.resolve_class(enclosing.cls)
            if (
                info is not None
                and info.is_frozen
                and enclosing.name != "__post_init__"
            ):
                return info
            return None
        if enclosing is not None:
            flow = index.flow(enclosing)
            for assigned in flow.assignments.get(name, ()):
                found = self._frozen_provenance(
                    index, file, enclosing, assigned,
                    depth - 1, _seen | {name},
                )
                if found is not None:
                    return found
            annotation = _param_annotation(enclosing, name)
            if annotation is not None:
                for token in _annotation_names(annotation, file):
                    info = index.resolve_class(token)
                    if (
                        info is not None
                        and info.is_dataclass
                        and info.is_frozen
                    ):
                        return info
        return None


def _param_annotation(
    func: FunctionInfo, name: str
) -> ast.expr | None:
    args = func.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.arg == name:
            return arg.annotation
    return None


def _annotation_names(
    annotation: ast.expr, file: SourceFile
) -> Iterator[str]:
    dotted = dotted_name(annotation, file.aliases)
    if dotted is not None:
        yield dotted.split(".")[-1]
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
