"""The ``repro lint`` CLI: exit codes, JSON schema, default target."""

import json
import os

import pytest

from repro.cli import main
from repro.lintpass import all_rules
from repro.lintpass.report import JSON_SCHEMA_VERSION

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_clean_tree_exits_zero(capsys):
    rc = main(["lint", os.path.join(FIXTURES, "suppressed")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean: 0 violations" in out
    assert "(1 suppressed)" in out


def test_violations_exit_one_and_list_positions(capsys):
    target = os.path.join(FIXTURES, "wall_clock")
    rc = main(["lint", target])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[wall-clock]" in out
    assert "timing.py:7:" in out


def test_default_target_is_the_package(capsys):
    rc = main(["lint"])
    out = capsys.readouterr().out
    assert rc == 0, out  # the shipped tree must be clean


def test_json_schema(capsys):
    target = os.path.join(FIXTURES, "wall_clock")
    rc = main(["lint", "--json", target])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["root"] == [target]
    assert payload["files_checked"] >= 1
    assert payload["counts"] == {"wall-clock": 1}
    assert "deep" not in payload
    assert "wall-clock" in payload["rules"]
    assert "deep-frozen-flow" in payload["rules"]
    assert payload["suppressed"] == 0
    assert "schema" not in payload  # no RunSpec in the tree, no fingerprint
    (violation,) = payload["violations"]
    assert set(violation) == {"rule", "path", "line", "col", "message"}
    assert violation["rule"] == "wall-clock"
    assert violation["path"].endswith("timing.py")


def test_plain_lint_runs_the_deep_rules(capsys):
    target = os.path.join(FIXTURES, "deep_priority")
    rc = main(["lint", "--json", target])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert "deep-priority-layers" in payload["rules"]
    assert payload["counts"] == {"deep-priority-layers": 3}


def test_deep_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--deep"])
    assert excinfo.value.code == 2
    assert "--deep" in capsys.readouterr().err


def test_deep_json_over_package_carries_schema_fingerprint(capsys):
    rc = main(["lint", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0, payload["violations"]
    assert payload["violations"] == []
    fingerprint = payload["schema"]["fingerprint"]
    assert len(fingerprint) == 64
    assert isinstance(payload["schema"]["version"], int)


def test_bare_rules_flag_lists_the_registry(capsys):
    rc = main(["lint", "--rules"])
    out = capsys.readouterr().out
    assert rc == 0
    header, _, *rows = [line for line in out.splitlines() if line.strip()]
    assert header.split() == ["rule", "summary"]
    listed = {row.split()[0] for row in rows if not row.startswith("select")}
    assert listed == set(all_rules())
    assert len(listed) == 7
    assert "deselect" in out


def test_rules_flag_selects_a_deep_rule_without_deep(capsys):
    target = os.path.join(FIXTURES, "deep_frozen")
    rc = main(["lint", "--rules", "deep-frozen-flow", target])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[deep-frozen-flow]" in out
    assert "2 violations" in out


def test_rules_flag_deselects(capsys):
    # `-id` must be attached with `=` so argparse doesn't read a flag.
    target = os.path.join(FIXTURES, "wall_clock")
    assert main(["lint", "--rules=-wall-clock", target]) == 0


def test_baseline_round_trip_gates_on_growth(tmp_path, capsys):
    target = os.path.join(FIXTURES, "deep_priority")
    baseline = str(tmp_path / "baseline.json")
    # Record the three pre-existing findings as the accepted backlog...
    rc = main(["lint", "--update-baseline", baseline, target])
    captured = capsys.readouterr()
    assert rc == 0
    assert "baseline written" in captured.err
    payload = json.loads(open(baseline).read())
    assert sum(payload["findings"].values()) == 3
    # ...after which the same tree passes the gate.
    rc = main(["lint", "--baseline", baseline, target])
    out = capsys.readouterr().out
    assert rc == 0
    assert "baseline: 0 new, 3 known, 0 retired" in out
    # A different fixture's findings are growth: the gate fails.
    other = os.path.join(FIXTURES, "deep_frozen")
    rc = main(["lint", "--baseline", baseline, other])
    out = capsys.readouterr().out
    assert rc == 1
    assert "baseline: 2 new" in out
    rc = main(["lint", "--json", "--baseline", baseline, other])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["baseline"]["new"] == 2
    assert len(payload["baseline"]["new_findings"]) == 2
    assert payload["baseline"]["schema_note"] is None


def test_rules_subset_flag(capsys):
    target = os.path.join(FIXTURES, "wall_clock")
    assert main(["lint", "--rules", "rng-direct", target]) == 0
    capsys.readouterr()
    assert main(["lint", "--rules", "wall-clock,rng-direct", target]) == 1


def test_unknown_rule_flag_exits_two(capsys):
    rc = main(["lint", "--rules", "bogus", FIXTURES])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown rule id" in err
