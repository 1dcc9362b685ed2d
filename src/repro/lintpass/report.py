"""Rendering of lint results: human text and machine-readable JSON.

The JSON schema (version 3)::

    {
      "version": 3,
      "root": ["src/repro"],
      "files_checked": 58,
      "rules": ["deep-bus-vocabulary", "..."],
      "violations": [
        {"rule": "wall-clock", "path": "src/repro/sim/x.py",
         "line": 10, "col": 4, "message": "..."}
      ],
      "counts": {"wall-clock": 1},
      "suppressed": 2,
      "schema": {"fingerprint": "...", "version": 7},  # trees with RunSpec
      "baseline": {"new": 0, "matched": 3, "retired": 1,
                   "schema_note": null,
                   "schema_refresh": null}                   # with --baseline
    }

``violations`` is sorted by (path, line, col, rule) and ``counts``
key-sorted, so the output is byte-stable for a given tree — it can be
diffed, cached, and digested like everything else in this repo.
Version 2 also carried a boolean ``deep`` key; version 1 lacked
``rules``/``suppressed``/``schema``/``baseline``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.lintpass.run import LintReport

if TYPE_CHECKING:
    from repro.lintpass.baseline import BaselineDelta

__all__ = ["JSON_SCHEMA_VERSION", "render_text", "render_json"]

JSON_SCHEMA_VERSION = 3


def render_text(
    report: LintReport, delta: "BaselineDelta | None" = None
) -> str:
    """One line per violation plus a summary line."""
    lines = [v.render() for v in report.violations]
    noun = "file" if report.files_checked == 1 else "files"
    count = len(report.violations)
    if report.violations:
        vnoun = "violation" if count == 1 else "violations"
        lines.append(
            f"{count} {vnoun} in {report.files_checked} {noun} checked"
        )
    else:
        lines.append(
            f"clean: 0 violations in {report.files_checked} {noun} checked"
        )
    if delta is not None:
        lines.append(
            f"baseline: {len(delta.new)} new, {delta.matched} known, "
            f"{delta.retired} retired"
        )
        if delta.retired:
            lines.append(
                "  (re-run with --update-baseline to burn retired "
                "findings down)"
            )
        if delta.schema_note is not None:
            lines.append(f"schema: {delta.schema_note}")
        if delta.schema_refresh is not None:
            lines.append(f"schema (non-gating): {delta.schema_refresh}")
    return "\n".join(lines)


def render_json(
    report: LintReport, delta: "BaselineDelta | None" = None
) -> str:
    counts: dict[str, int] = {}
    for v in report.violations:
        counts[v.rule] = counts.get(v.rule, 0) + 1
    payload: dict[str, object] = {
        "version": JSON_SCHEMA_VERSION,
        "root": list(report.roots),
        "files_checked": report.files_checked,
        "rules": list(report.rules_run),
        "violations": [
            {"rule": v.rule, "path": v.path, "line": v.line, "col": v.col,
             "message": v.message}
            for v in report.violations
        ],
        "counts": dict(sorted(counts.items())),
        "suppressed": len(report.suppressed),
    }
    if report.schema_fingerprint is not None:
        payload["schema"] = {
            "fingerprint": report.schema_fingerprint,
            "version": report.schema_version,
        }
    if delta is not None:
        payload["baseline"] = {
            "new": len(delta.new),
            "matched": delta.matched,
            "retired": delta.retired,
            "schema_note": delta.schema_note,
            "schema_refresh": delta.schema_refresh,
            "new_findings": [
                {"rule": v.rule, "path": v.path, "line": v.line,
                 "col": v.col, "message": v.message}
                for v in delta.new
            ],
        }
    return json.dumps(payload, indent=2, sort_keys=False)
