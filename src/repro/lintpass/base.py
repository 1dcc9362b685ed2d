"""Rule protocol, violation records, and suppression parsing.

A rule is a class with a stable ``id`` (the slug users write in
suppression comments), a one-line ``summary``, and a ``check`` method
that walks a :class:`~repro.lintpass.project.ProjectIndex` and yields
:class:`Violation` records. Rules register themselves with the
:func:`register` decorator; :func:`all_rules` is the registry the CLI
and the suppression validator read.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import LintError

if TYPE_CHECKING:  # circular at runtime: project imports nothing from here
    from repro.lintpass.project import ProjectIndex

__all__ = [
    "Violation",
    "Rule",
    "register",
    "all_rules",
    "parse_suppressions",
    "expand_suppressions",
    "SUPPRESS_ALL",
]

#: Sentinel rule id meaning "ignore every rule on this line"
#: (a bare ``# repro-lint: ignore`` comment).
SUPPRESS_ALL = "*"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<ids>[^\]]*)\])?"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a file position, the rule that fired, and why."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` and :attr:`summary` and implement
    :meth:`check`. Helper :meth:`violation` fills in the rule id so
    check bodies only supply position and message.
    """

    id: str = ""
    summary: str = ""

    def check(self, index: "ProjectIndex") -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, path: str, line: int, col: int, message: str) -> Violation:
        return Violation(path=path, line=line, col=col, rule=self.id,
                         message=message)


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.id:
        raise LintError(f"rule class {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise LintError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """The registered rules, keyed by id (import side effect: loading
    the rule modules populates this)."""
    # Importing the rule modules here keeps `all_rules()` complete even
    # when a caller imports base directly.
    from repro.lintpass import rules_deep_digest  # noqa: F401
    from repro.lintpass import rules_deep_events  # noqa: F401
    from repro.lintpass import rules_deep_frozen  # noqa: F401
    from repro.lintpass import rules_deep_priority  # noqa: F401
    from repro.lintpass import rules_order  # noqa: F401
    from repro.lintpass import rules_purity  # noqa: F401

    return dict(_REGISTRY)


def parse_suppressions(lines: Iterable[str]) -> dict[int, frozenset[str]]:
    """Per-line suppression sets from ``repro-lint: ignore[rule]`` comments.

    Returns ``{line_number: {rule ids}}`` (1-based lines, matching AST
    positions). A bare ``ignore`` with no bracket suppresses every rule
    on that line (:data:`SUPPRESS_ALL`). Rule-id validity is checked
    later against the registry, once all rules are loaded.
    """
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        ids = m.group("ids")
        if ids is None:
            out[lineno] = frozenset((SUPPRESS_ALL,))
            continue
        parsed = frozenset(part.strip() for part in ids.split(",") if part.strip())
        if not parsed:
            raise LintError(
                f"empty suppression list on line {lineno}: {text.strip()!r}"
            )
        out[lineno] = parsed
    return out


#: Compound statement types a suppression must never expand across:
#: covering an ``if``/``for``/``def`` span would silence the rule for
#: every statement in the block, not just the annotated one.
_COMPOUND_STMTS: tuple[type[ast.AST], ...] = tuple(
    getattr(ast, name)
    for name in (
        "If", "For", "AsyncFor", "While", "With", "AsyncWith",
        "Try", "TryStar", "FunctionDef", "AsyncFunctionDef",
        "ClassDef", "Match",
    )
    if hasattr(ast, name)
)


def expand_suppressions(
    tree: ast.Module, suppressed: dict[int, frozenset[str]]
) -> dict[int, frozenset[str]]:
    """Extend suppression comments to the full span of their statement.

    A violation is reported at the *first* line of its node, but a
    multi-line call naturally carries its ``repro-lint: ignore``
    comment on whichever physical line holds the offending argument or
    the closing paren. Map each suppression onto the innermost *simple*
    statement whose line span contains it, covering every line of that
    span, so the comment silences the finding wherever it is anchored.
    Compound statements (``if``/``for``/``def``/...) are excluded: a
    suppression on a one-line statement inside a block must stay exact,
    not blanket the whole block.
    """
    if not suppressed:
        return suppressed
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.stmt)
            and not isinstance(node, _COMPOUND_STMTS)
            and node.end_lineno is not None
        ):
            spans.append((node.lineno, node.end_lineno))
    expanded: dict[int, set[str]] = {
        line: set(ids) for line, ids in suppressed.items()
    }
    for line, ids in suppressed.items():
        containing = [
            span for span in spans if span[0] <= line <= span[1] and span[0] != span[1]
        ]
        if not containing:
            continue
        # Innermost statement: the narrowest containing span.
        start, end = min(containing, key=lambda span: span[1] - span[0])
        for covered in range(start, end + 1):
            expanded.setdefault(covered, set()).update(ids)
    return {line: frozenset(ids) for line, ids in expanded.items()}
