"""Deep priority-layer discipline over the event calendar.

Same-timestamp events execute in ``(priority, schedule order)`` order,
and the tie-order race detector can only vouch for batches whose
relative order is *named*: every ``schedule``/``schedule_after``/
``PeriodicProcess`` call site must pass a ``PRIORITY_*`` constant (or
forward a parameter), never a raw integer — a magic ``7`` silently
lands between layers and the next reader cannot tell whether that was
load-bearing. Separately, two different ``PRIORITY_*`` constants
sharing one value collapse two subsystem layers into a single
tie-broken batch, which is exactly the hazard the layering exists to
prevent.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintpass.base import Rule, Violation, register
from repro.lintpass.project import ProjectIndex, SourceFile

__all__ = ["DeepPriorityLayersRule"]

#: Constant-name prefix that marks a named scheduling layer.
_PRIORITY_PREFIX = "PRIORITY_"


def _is_named_priority(expr: ast.expr) -> bool:
    """True when the expression references a PRIORITY_* name (possibly
    offset arithmetically, e.g. ``PRIORITY_MODEL + 1``) or forwards a
    non-literal value (parameters, attributes — resolved elsewhere)."""
    if isinstance(expr, ast.Constant):
        return False
    if isinstance(expr, ast.UnaryOp):
        # A signed literal (``priority=-1``) is still a raw integer.
        return _is_named_priority(expr.operand)
    if isinstance(expr, ast.BinOp):
        return _is_named_priority(expr.left) or _is_named_priority(expr.right)
    if isinstance(expr, ast.Name):
        return True  # named constant or forwarded parameter
    if isinstance(expr, ast.Attribute):
        return True  # module-qualified constant or instance attribute
    if isinstance(expr, ast.IfExp):
        return _is_named_priority(expr.body) and _is_named_priority(expr.orelse)
    return True  # calls/subscripts: dynamic, not a raw literal


@register
class DeepPriorityLayersRule(Rule):
    """Raw integers at priority kwargs; duplicate layer values."""

    id = "deep-priority-layers"
    summary = ("schedule call passes a raw integer priority, or two "
               "PRIORITY_* layers share one value")

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for file in index.files:
            yield from self._check_call_sites(file)
            yield from self._check_layer_values(index, file)

    # ------------------------------------------------------------------
    def _check_call_sites(self, file: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg != "priority":
                    continue
                if _is_named_priority(keyword.value):
                    continue
                yield self.violation(
                    file.path, keyword.value.lineno,
                    keyword.value.col_offset,
                    "raw integer priority at a schedule call site; pass a "
                    "named PRIORITY_* constant so the layer ordering stays "
                    "auditable",
                )

    # ------------------------------------------------------------------
    def _check_layer_values(
        self, index: ProjectIndex, file: SourceFile
    ) -> Iterator[Violation]:
        constants = index.module_constants(file.module)
        by_value: dict[int, str] = {}
        for node in file.tree.body:
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            name = node.targets[0].id
            if not name.startswith(_PRIORITY_PREFIX):
                continue
            value = constants.get(name)
            if not isinstance(value, int):
                continue
            first = by_value.get(value)
            if first is None:
                by_value[value] = name
                continue
            yield self.violation(
                file.path, node.lineno, node.col_offset,
                f"{name} = {value} collides with {first}: two subsystem "
                "layers at one priority value execute in tie order, which "
                "is exactly the hazard the layering exists to prevent",
            )
