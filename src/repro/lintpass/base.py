"""Rule protocol, violation records, and suppression parsing.

A rule is a class with a stable ``id`` (the slug users write in
suppression comments), a one-line ``summary``, and a ``check`` method
that walks a :class:`~repro.lintpass.project.ProjectIndex` and yields
:class:`Violation` records. Rules register themselves with the
:func:`register` decorator; :func:`all_rules` is the registry
:func:`~repro.lintpass.run.run_lint` runs and checks suppression ids
against.
"""

from __future__ import annotations

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
]

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
    positions). A comment silences only findings reported on its own
    line. One that names no rule (a bare ``ignore`` or ``ignore[]``)
    maps to the empty set; :func:`~repro.lintpass.run.run_lint` refuses
    it, as it refuses an unknown id, once all rules are loaded.
    """
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if m is not None:
            ids = m.group("ids") or ""
            out[lineno] = frozenset(
                part.strip() for part in ids.split(",") if part.strip()
            )
    return out
