"""Baseline burn-down: new findings gate, matched pass, retired shrink."""

import pytest

from repro.errors import LintError
from repro.lintpass.base import Violation
from repro.lintpass.baseline import (
    baseline_payload,
    compare_baseline,
    finding_key,
    load_baseline,
    stable_path,
    write_baseline,
)
from repro.lintpass.run import LintReport


def violation(rule="wall-clock", path="src/repro/sim/x.py", line=3,
              message="host clock read"):
    return Violation(path=path, line=line, col=0, rule=rule, message=message)


def report(violations, fingerprint=None, version=None):
    return LintReport(
        roots=("src/repro",), files_checked=1,
        violations=tuple(violations), suppressed=(),
        rules_run=("wall-clock",),
        schema_fingerprint=fingerprint, schema_version=version,
    )


def test_stable_path_normalises_to_last_repro_component():
    assert stable_path("/ci/checkout/src/repro/sim/engine.py") == \
        "repro/sim/engine.py"
    assert stable_path("src/repro/sim/engine.py") == "repro/sim/engine.py"
    assert stable_path("standalone.py") == "standalone.py"


def test_finding_key_is_line_independent():
    assert finding_key(violation(line=3)) == finding_key(violation(line=99))


def test_matched_finding_passes_the_gate():
    base = baseline_payload(report([violation()]))
    delta = compare_baseline(report([violation(line=42)]), base)
    assert delta.gate_passed
    assert delta.matched == 1 and not delta.new and delta.retired == 0


def test_new_finding_fails_the_gate():
    base = baseline_payload(report([violation()]))
    extra = violation(rule="deep-priority-layers", message="raw priority")
    delta = compare_baseline(report([violation(), extra]), base)
    assert not delta.gate_passed
    assert len(delta.new) == 1
    assert delta.new[0].rule == "deep-priority-layers"
    assert delta.new_keys == (finding_key(extra),)


def test_count_increase_beyond_budget_is_new():
    base = baseline_payload(report([violation()]))
    delta = compare_baseline(
        report([violation(line=1), violation(line=2)]), base
    )
    assert delta.matched == 1 and len(delta.new) == 1


def test_fixed_finding_retires_and_still_passes():
    base = baseline_payload(report([violation()]))
    delta = compare_baseline(report([]), base)
    assert delta.gate_passed
    assert delta.retired == 1


def test_schema_drift_without_version_bump_fails():
    base = baseline_payload(report([], fingerprint="a" * 64, version=7))
    delta = compare_baseline(
        report([], fingerprint="b" * 64, version=7), base
    )
    assert not delta.gate_passed
    assert delta.schema_note is not None
    assert "SCHEMA_VERSION" in delta.schema_note
    assert delta.schema_refresh is None


def test_schema_drift_with_version_bump_is_legal_but_reminds():
    base = baseline_payload(report([], fingerprint="a" * 64, version=7))
    delta = compare_baseline(
        report([], fingerprint="b" * 64, version=8), base
    )
    assert delta.gate_passed and delta.schema_note is None
    # The gate stays open, but the stale pin must not pass silently —
    # otherwise the fingerprint gate is disarmed until someone notices.
    assert delta.schema_refresh is not None
    assert "--update-baseline" in delta.schema_refresh


def test_unchanged_schema_has_no_refresh_note():
    base = baseline_payload(report([], fingerprint="a" * 64, version=7))
    delta = compare_baseline(
        report([], fingerprint="a" * 64, version=7), base
    )
    assert delta.gate_passed
    assert delta.schema_note is None and delta.schema_refresh is None


def test_write_and_load_round_trip(tmp_path):
    path = str(tmp_path / "baseline.json")
    write_baseline(path, report([violation()], fingerprint="c" * 64,
                                version=3))
    loaded = load_baseline(path)
    assert loaded["version"] == 1
    assert loaded["findings"] == {finding_key(violation()): 1}
    assert loaded["schema_fingerprint"] == "c" * 64
    assert loaded["schema_version"] == 3


def test_load_rejects_non_baseline_files(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    with pytest.raises(LintError, match="findings"):
        load_baseline(str(bogus))
    missing = str(tmp_path / "absent.json")
    with pytest.raises(LintError, match="cannot read"):
        load_baseline(missing)
