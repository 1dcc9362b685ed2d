"""One fixture tree per lint rule: each must fire exactly where planted.

The fixtures under ``fixtures/<case>/repro/...`` mirror the real
package layout so package-scoped rules (wall-clock, rng-direct) apply
to them exactly as they do to ``src/repro``.
"""

import os
import shutil

import pytest

from repro.errors import LintError
from repro.lintpass import all_rules, run_lint
from repro.lintpass.project import ProjectIndex
from repro.lintpass.rules_deep_digest import schema_snapshot

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

ALL_RULES = {
    "rng-direct", "wall-clock", "unordered-iter",
    "deep-digest-provenance", "deep-bus-vocabulary",
    "deep-priority-layers", "deep-frozen-flow",
}


def lint(case: str):
    return run_lint([os.path.join(FIXTURES, case)])


def rules_fired(report) -> set[str]:
    return {v.rule for v in report.violations}


def test_registry_has_all_seven_rules():
    assert set(all_rules()) == ALL_RULES


def test_rng_direct_fixture():
    report = lint("rng_direct")
    assert rules_fired(report) == {"rng-direct"}
    assert len(report.violations) == 1
    assert "numpy.random.default_rng" in report.violations[0].message


def test_rng_registry_itself_is_exempt():
    # The registry module is the one place allowed to touch the raw RNG.
    import repro

    rng_py = os.path.join(os.path.dirname(os.path.abspath(repro.__file__)),
                          "rng.py")
    report = run_lint([rng_py])
    assert [v for v in report.violations if v.rule == "rng-direct"] == []


def test_wall_clock_fixture():
    report = lint("wall_clock")
    assert rules_fired(report) == {"wall-clock"}
    assert "time.time" in report.violations[0].message


def test_unordered_iter_fixture():
    report = lint("unordered_iter")
    assert rules_fired(report) == {"unordered-iter"}
    messages = [v.message for v in report.violations]
    assert any("self.pending" in m for m in messages), messages
    assert any("os.listdir" in m for m in messages), messages


def test_digest_coverage_fixture_catches_missing_and_inherited_fields():
    report = lint("digest_coverage")
    assert rules_fired(report) == {"deep-digest-provenance"}
    by_class = {
        "MiniSpec": [v for v in report.violations if "'MiniSpec'" in v.message],
        "WideSpec": [v for v in report.violations if "'WideSpec'" in v.message],
    }
    # The base class digest misses its own `scale` field...
    assert len(by_class["MiniSpec"]) == 1
    assert "scale" in by_class["MiniSpec"][0].message
    # ...and the subclass that added `duration` while inheriting the
    # stale digest is caught too (the regression digest provenance
    # exists for).
    assert len(by_class["WideSpec"]) == 1
    assert "duration" in by_class["WideSpec"][0].message
    assert "inherited" in by_class["WideSpec"][0].message


def test_frozen_mutate_fixture_allows_post_init():
    report = lint("frozen_mutate")
    assert rules_fired(report) == {"deep-frozen-flow"}
    assert len(report.violations) == 1  # bump() only, not __post_init__
    assert report.violations[0].line > 10


def test_suppression_comment_silences_and_is_reported():
    report = lint("suppressed")
    assert report.clean
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "wall-clock"


def test_suppression_does_not_blanket_enclosing_block(tmp_path):
    # A suppression silences only the line it sits on, not the rest of
    # the enclosing function body.
    tree = tmp_path / "repro" / "sim"
    tree.mkdir(parents=True)
    (tree / "x.py").write_text(
        "import time\n\n\n"
        "def stamp() -> float:\n"
        "    t = time.time()  # repro-lint: ignore[wall-clock]\n"
        "    return t + time.time()\n"
    )
    report = run_lint([str(tmp_path)])
    assert len(report.suppressed) == 1
    assert report.suppressed[0].line == 5
    assert len(report.violations) == 1, [
        v.render() for v in report.violations
    ]
    assert report.violations[0].line == 6


def test_suppression_on_multiline_statement_silences_only_its_line():
    # The comment sits on the closing-paren line; the finding is
    # reported on the time.time() line above it and stays active.
    report = lint("suppressed_multiline")
    assert report.suppressed == ()
    assert [(v.rule, v.line) for v in report.violations] == [("wall-clock", 9)]


# ----------------------------------------------------------------------
# whole-program rules
# ----------------------------------------------------------------------
def test_deep_digest_provenance_fixture():
    report = lint("deep_digest")
    assert rules_fired(report) == {"deep-digest-provenance"}
    messages = sorted(v.message for v in report.violations)
    assert len(messages) == 2
    # A field reachable only through self._digest_parts() is credited;
    # the one no helper touches is the finding.
    assert "'HelperSpec'" in messages[1]
    assert "seed" in messages[1]
    assert "name" not in messages[1] and "scale" not in messages[1]
    # The parsed-but-never-read CLI flag.
    assert "--dead-knob" in messages[0]


PIN_CASE = os.path.join(FIXTURES, "schema_pin")


def pin_tree(tmp_path, *edits: tuple[str, str, str]) -> str:
    """A copy of the schema_pin fixture with ``(module, old, new)``
    text replacements applied."""
    root = tmp_path / "schema_pin"
    shutil.copytree(PIN_CASE, root)
    for module, old, new in edits:
        source = root / "repro" / "experiments" / module
        text = source.read_text()
        assert old in text
        source.write_text(text.replace(old, new))
    return str(root)


def pin_finding(root: str):
    """The one finding of a tree whose pin is stale or missing."""
    report = run_lint([root])
    assert len(report.violations) == 1, [v.render() for v in report.violations]
    (finding,) = report.violations
    assert finding.rule == "deep-digest-provenance"
    assert finding.path.endswith("artifact.py")
    assert "SCHEMA_VERSION" in finding.message
    # It prints the fingerprint to re-pin.
    assert schema_snapshot(ProjectIndex.build([root])) in finding.message
    return finding


def test_schema_pin_matching_the_closure_is_clean():
    report = lint("schema_pin")
    assert report.clean, [v.render() for v in report.violations]
    index = ProjectIndex.build([PIN_CASE])
    pinned = index.module_constants("repro.experiments.artifact")
    assert pinned["SCHEMA_FINGERPRINT"] == schema_snapshot(index)


ADDED_FIELD = ("scenarios.py", "    duration: float = 60.0\n",
               "    duration: float = 60.0\n    extra_knob: float = 0.0\n")


def test_schema_drift_without_version_bump_fails(tmp_path):
    finding = pin_finding(pin_tree(tmp_path, ADDED_FIELD))
    assert finding.line == 10  # the SCHEMA_FINGERPRINT assignment
    assert "no longer matches SCHEMA_FINGERPRINT" in finding.message
    assert "SCHEMA_VERSION 3" in finding.message


def test_schema_drift_with_version_bump_still_needs_repin(tmp_path):
    # Bumping the version alone is not enough: until the pin moves with
    # it, the next field-set change could not be caught.
    bumped = ("artifact.py", "SCHEMA_VERSION = 3", "SCHEMA_VERSION = 4")
    finding = pin_finding(pin_tree(tmp_path, ADDED_FIELD, bumped))
    assert finding.line == 10
    assert "no longer matches SCHEMA_FINGERPRINT" in finding.message
    assert "SCHEMA_VERSION 4" in finding.message


def test_missing_schema_pin_is_one_finding(tmp_path):
    root = pin_tree(
        tmp_path, ("artifact.py", "SCHEMA_FINGERPRINT = ", "_UNPINNED = ")
    )
    finding = pin_finding(root)
    assert finding.line == 8  # reported at SCHEMA_VERSION instead
    assert "pins no SCHEMA_FINGERPRINT" in finding.message


def test_partial_lint_skips_the_schema_pin():
    # A lint of part of the package (a pre-commit hook over changed
    # files, say) indexes RunSpec but not every class of its closure:
    # no fingerprint, so no pin finding that would ask for a wrong pin.
    artifact = os.path.join(PIN_CASE, "repro", "experiments", "artifact.py")
    assert schema_snapshot(ProjectIndex.build([artifact])) is None
    report = run_lint([artifact])
    assert report.clean, [v.render() for v in report.violations]
    # The shipped experiments package alone lacks TierPolicyConfig and
    # the fault specs of the closure.
    import repro

    experiments = os.path.join(
        os.path.dirname(os.path.abspath(repro.__file__)), "experiments"
    )
    assert schema_snapshot(ProjectIndex.build([experiments])) is None


def test_deep_bus_vocabulary_fixture():
    report = lint("deep_events")
    assert rules_fired(report) == {"deep-bus-vocabulary"}
    messages = [v.message for v in report.violations]
    assert len(messages) == 6
    # Undeclared kinds, whether forwarded through a helper or passed
    # literally to the DecisionEvent constructor.
    assert any("'mystery_kind'" in m and "not declared" in m
               for m in messages)
    assert any("'scale_sideways'" in m and "not declared" in m
               for m in messages)
    # Declared but never emitted nor consumed.
    assert any("'dead_kind'" in m and "never emitted" in m
               for m in messages)
    # Handler branch with no live publisher.
    assert any("'ghost_kind'" in m and "no publisher" in m
               for m in messages)
    # decision_kinds divergence, both directions.
    assert any("'demo' emits decision kind 'scale_out'" in m
               for m in messages)
    assert any("'demo' declares decision kind 'threshold_trip'" in m
               for m in messages)
    # A kind emitted only through nudge()'s parameter default is live:
    # neither a ghost nor dead vocabulary.
    assert not any("'defaulted_kind'" in m for m in messages)


def test_deep_bus_row_replay_is_not_an_emission():
    # fixtures/deep_events/repro/control/trace.py rebuilds stored events
    # with DecisionEvent(*row). That replays, it does not emit, so the
    # graph stays complete and the ghost-kind proof above can run.
    from repro.lintpass.project import ProjectIndex
    from repro.lintpass.rules_deep_events import bus_graph

    graph = bus_graph(ProjectIndex.build([os.path.join(FIXTURES, "deep_events")]))
    assert graph.complete is True
    assert not any(
        os.path.basename(r.file.path) == "trace.py" for r in graph.emissions
    )


def test_deep_bus_dynamic_binding_disables_absence_proofs():
    # The only emitter binds `kind` via **payload: the emitted-kind set
    # is a lower bound, so the publisher-less-handler proof must not
    # fire against PHANTOM_KIND.
    from repro.lintpass.project import ProjectIndex
    from repro.lintpass.rules_deep_events import bus_graph

    case = os.path.join(FIXTURES, "deep_events_dynamic")
    index = ProjectIndex.build([case])
    assert bus_graph(index).complete is False
    report = lint("deep_events_dynamic")
    assert report.clean, [v.render() for v in report.violations]


def test_deep_priority_layers_fixture():
    report = lint("deep_priority")
    assert rules_fired(report) == {"deep-priority-layers"}
    messages = [v.message for v in report.violations]
    assert len(messages) == 3
    assert any("raw integer priority" in m for m in messages)
    assert any("PRIORITY_MONITOR = 10 collides with PRIORITY_SAMPLER" in m
               for m in messages)
    # The two named-constant call sites (plain and sign-offset) must
    # NOT fire; the plain literal and the signed literal both must.
    raw = [v for v in report.violations if "raw integer" in v.message]
    assert len(raw) == 2


def test_deep_frozen_flow_fixture():
    report = lint("deep_frozen")
    assert rules_fired(report) == {"deep-frozen-flow"}
    messages = [v.message for v in report.violations]
    assert len(messages) == 2
    assert any("aliases object.__setattr__" in m for m in messages)
    assert any("frozen dataclass 'Plan'" in m for m in messages)
    # A helper called only from __post_init__ is the legitimate
    # normalisation pattern; the rule resolves the callers and stays
    # quiet.
    assert not any(v.line == 17 for v in report.violations)


def test_unknown_suppression_slug_raises(tmp_path):
    # A typoed id, a bare ignore and an empty bracket all name their
    # line: none of them may silently suppress nothing (or everything).
    bad = tmp_path / "repro" / "sim"
    bad.mkdir(parents=True)
    for comment, match in (
        ("ignore[wallclock-typo]", "x.py:5: unknown rule id.*wallclock-typo"),
        ("ignore", "x.py:5: suppression names no rule id"),
        ("ignore[]", "x.py:5: suppression names no rule id"),
    ):
        (bad / "x.py").write_text(
            "import time\n\n\n"
            "def stamp() -> float:\n"
            f"    return time.time()  # repro-lint: {comment}\n"
        )
        with pytest.raises(LintError, match=match):
            run_lint([str(tmp_path)])


def test_missing_path_raises():
    with pytest.raises(LintError, match="no such file"):
        run_lint([os.path.join(FIXTURES, "does_not_exist")])


def test_source_tree_is_clean():
    """The repo's own package must pass its own gate, every rule on."""
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    report = run_lint([package_dir])
    assert report.violations == (), "\n".join(
        v.render() for v in report.violations
    )
    # The one known justified suppression: the RunSpec digest memo.
    assert [(v.rule, os.path.basename(v.path)) for v in report.suppressed] \
        == [("deep-frozen-flow", "artifact.py")]


def test_source_tree_is_deep_clean():
    """The whole-program analyses pass over the shipped tree on a plain
    lint, the digest-memo suppression silences deep-frozen-flow, and
    the schema pin is really checked: the tree's closure fingerprints
    (a renamed or unfrozen ``RunSpec`` would switch the check off) and
    equals the pin."""
    import repro
    from repro.experiments.artifact import SCHEMA_FINGERPRINT

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    report = run_lint([package_dir])
    deep = {rule for rule in ALL_RULES if rule.startswith("deep-")}
    deep_violations = [v for v in report.violations if v.rule in deep]
    assert deep_violations == [], "\n".join(
        v.render() for v in deep_violations
    )
    assert any(v.rule == "deep-frozen-flow" for v in report.suppressed)
    index = ProjectIndex.build([package_dir])
    assert schema_snapshot(index) == SCHEMA_FINGERPRINT


def test_source_tree_bus_graph_is_complete():
    """Every emission in the shipped tree resolves, so the vocabulary
    rule's absence proofs (publisher-less handlers, over-declared
    decision kinds) run on it. A refactor that hides an emission from
    the call graph (say, a ``self.bus.publish(DecisionEvent(...))``
    whose kind arrives through an unresolvable call) fails here."""
    import repro
    from repro.control.events import (
        FAULT_KINDS,
        HARDWARE_KINDS,
        MODE_KINDS,
        SOFT_KINDS,
    )
    from repro.lintpass.project import ProjectIndex
    from repro.lintpass.rules_deep_events import bus_graph

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    graph = bus_graph(ProjectIndex.build([package_dir]))
    assert graph.complete is True
    expected = set(MODE_KINDS + HARDWARE_KINDS + SOFT_KINDS + FAULT_KINDS)
    assert expected <= graph.emitted_kinds(), sorted(
        expected - graph.emitted_kinds()
    )
