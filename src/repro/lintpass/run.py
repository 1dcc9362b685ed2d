"""Run the lint pass: build the index, run every rule, apply suppressions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import LintError
from repro.lintpass.base import Violation, all_rules
from repro.lintpass.project import ProjectIndex

__all__ = ["LintReport", "run_lint"]


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    files_checked: int
    violations: tuple[Violation, ...]
    #: violations silenced by per-line ignore comments
    suppressed: tuple[Violation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """One line per violation, a summary line, and the suppressed
        count when any finding was silenced."""
        lines = [v.render() for v in self.violations]
        noun = "file" if self.files_checked == 1 else "files"
        count = len(self.violations)
        if count:
            vnoun = "violation" if count == 1 else "violations"
            lines.append(
                f"{count} {vnoun} in {self.files_checked} {noun} checked"
            )
        else:
            lines.append(
                f"clean: 0 violations in {self.files_checked} {noun} checked"
            )
        if self.suppressed:
            lines.append(f"({len(self.suppressed)} suppressed)")
        return "\n".join(lines)


def _validate_suppressions(index: ProjectIndex, known: Iterable[str]) -> None:
    valid = set(known)
    for file in index.files:
        for line, ids in sorted(file.suppressed.items()):
            if not ids:
                raise LintError(
                    f"{file.path}:{line}: suppression names no rule id "
                    "(name the rule: ignore[rule-id])"
                )
            unknown = sorted(ids - valid)
            if unknown:
                raise LintError(
                    f"{file.path}:{line}: unknown rule id(s) in suppression: "
                    f"{', '.join(unknown)} (known: {', '.join(sorted(valid))})"
                )


def run_lint(paths: Sequence[str]) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with every registered rule.

    A suppression comment that names no rule, or an id the registry
    does not know, raises :class:`~repro.errors.LintError`, so a typoed
    slug never silently suppresses nothing.
    """
    registry = all_rules()
    index = ProjectIndex.build(list(paths))
    _validate_suppressions(index, registry)
    by_path = {file.path: file for file in index.files}
    active: list[Violation] = []
    suppressed: list[Violation] = []
    for rule_id in sorted(registry):
        for violation in registry[rule_id]().check(index):
            file = by_path[violation.path]
            if file.is_suppressed(violation.line, violation.rule):
                suppressed.append(violation)
            else:
                active.append(violation)
    return LintReport(
        files_checked=len(index.files),
        violations=tuple(sorted(active)),
        suppressed=tuple(sorted(suppressed)),
    )
