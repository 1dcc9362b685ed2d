"""The lint driver: build the index, run the rules, apply suppressions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import LintError
from repro.lintpass.base import SUPPRESS_ALL, Rule, Violation, all_rules
from repro.lintpass.project import ProjectIndex
from repro.lintpass.rules_deep_digest import schema_snapshot

__all__ = ["LintReport", "run_lint", "select_rules"]


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    roots: tuple[str, ...]
    files_checked: int
    violations: tuple[Violation, ...]
    #: violations silenced by per-line ignore comments
    suppressed: tuple[Violation, ...]
    #: rule ids that actually ran, after --rules selection
    rules_run: tuple[str, ...] = ()
    #: digested-spec schema snapshot (trees with RunSpec only)
    schema_fingerprint: str | None = None
    schema_version: int | None = None

    @property
    def clean(self) -> bool:
        return not self.violations


def _validate_suppressions(index: ProjectIndex, known: Iterable[str]) -> None:
    valid = set(known) | {SUPPRESS_ALL}
    for file in index.files:
        for line, ids in sorted(file.suppressed.items()):
            unknown = sorted(ids - valid)
            if unknown:
                raise LintError(
                    f"{file.path}:{line}: unknown rule id(s) in suppression: "
                    f"{', '.join(unknown)} (known: {', '.join(sorted(known))})"
                )


def select_rules(
    registry: dict[str, type[Rule]],
    rules: Sequence[str] | None,
) -> list[str]:
    """Resolve the rule selection for one run.

    The default is every registered rule. ``rules`` modifies it: plain
    ids replace the default set outright, while ``-id`` entries
    subtract from it.
    """
    if not rules:
        return sorted(registry)
    positive = [r for r in rules if not r.startswith("-")]
    negative = [r[1:] for r in rules if r.startswith("-")]
    unknown = sorted((set(positive) | set(negative)) - set(registry))
    if unknown:
        raise LintError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(registry))})"
        )
    selected = set(positive) if positive else set(registry)
    return sorted(selected - set(negative))


def run_lint(
    paths: Sequence[str],
    rules: Sequence[str] | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    ``rules`` selects a subset by id (default: every rule; ``-id``
    deselects). An unknown id raises :class:`~repro.errors.LintError`. Suppression
    comments are validated against the *full* registry even when only a
    subset runs, so a typoed slug never silently suppresses nothing.
    """
    registry = all_rules()
    selected = select_rules(registry, rules)
    index = ProjectIndex.build(list(paths))
    _validate_suppressions(index, registry)
    by_path = {file.path: file for file in index.files}
    active: list[Violation] = []
    suppressed: list[Violation] = []
    for rule_id in selected:
        rule = registry[rule_id]()
        for violation in rule.check(index):
            file = by_path[violation.path]
            if file.is_suppressed(violation.line, violation.rule):
                suppressed.append(violation)
            else:
                active.append(violation)
    fingerprint: str | None = None
    version: int | None = None
    snapshot = schema_snapshot(index)
    if snapshot is not None:
        fingerprint, version = snapshot
    return LintReport(
        roots=tuple(paths),
        files_checked=len(index.files),
        violations=tuple(sorted(active)),
        suppressed=tuple(sorted(suppressed)),
        rules_run=tuple(selected),
        schema_fingerprint=fingerprint,
        schema_version=version,
    )
