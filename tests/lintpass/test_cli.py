"""The ``repro lint`` CLI: one gate, no flags, exit codes, default target."""

import os
import shutil

import pytest

from repro.cli import main

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
    assert "clean: 0 violations" in out
    assert "(1 suppressed)" in out


def test_plain_lint_runs_the_deep_rules(capsys):
    target = os.path.join(FIXTURES, "deep_priority")
    rc = main(["lint", target])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("[deep-priority-layers]") == 3
    assert "3 violations" in out


def test_stale_schema_pin_exits_one(tmp_path, capsys):
    root = tmp_path / "schema_pin"
    shutil.copytree(os.path.join(FIXTURES, "schema_pin"), root)
    scenarios = root / "repro" / "experiments" / "scenarios.py"
    scenarios.write_text(
        scenarios.read_text() + "    extra_knob: float = 0.0\n"
    )
    rc = main(["lint", str(root)])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("[deep-digest-provenance]") == 1
    assert "SCHEMA_VERSION" in out
    assert "1 violation in 2 files checked" in out


def test_deep_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--deep"])
    assert excinfo.value.code == 2
    assert "--deep" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--json"],
        ["--rules=-wall-clock"],
        ["--baseline", "baseline.json"],
        ["--update-baseline", "baseline.json"],
    ],
    ids=["json", "rules-deselect", "baseline", "update-baseline"],
)
def test_lint_takes_no_flags(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", *argv])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_rule_flag_exits_two(capsys):
    # There is no rule selection: --rules itself is unknown.
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--rules", "bogus", FIXTURES])
    assert excinfo.value.code == 2
    assert "--rules" in capsys.readouterr().err
