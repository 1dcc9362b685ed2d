"""One fixture tree per lint rule: each must fire exactly where planted.

The fixtures under ``fixtures/<case>/repro/...`` mirror the real
package layout so package-scoped rules (wall-clock, rng-direct) apply
to them exactly as they do to ``src/repro``.
"""

import os

import pytest

from repro.errors import LintError
from repro.lintpass import all_rules, run_lint, select_rules

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

ALL_RULES = {
    "rng-direct", "wall-clock", "unordered-iter",
    "deep-digest-provenance", "deep-bus-vocabulary",
    "deep-priority-layers", "deep-frozen-flow",
}


def lint(case: str, rules=None):
    return run_lint([os.path.join(FIXTURES, case)], rules=rules)


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
    report = run_lint([rng_py], rules=["rng-direct"])
    assert report.violations == ()


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


def test_suppression_covers_multiline_statement_span():
    # The comment sits on the closing-paren line; the violation anchors
    # on the time.time() line two lines up. The statement-span expansion
    # must connect them.
    report = lint("suppressed_multiline")
    assert report.clean, [v.render() for v in report.violations]
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "wall-clock"


def test_suppression_does_not_blanket_enclosing_block(tmp_path):
    # A suppression on a one-line statement inside a function must stay
    # exact: expanding to the innermost *compound* statement would
    # silence the rule for the whole body.
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


def test_select_rules_deselection():
    registry = all_rules()
    assert set(select_rules(registry, None)) == ALL_RULES
    minus = select_rules(registry, ["-wall-clock"])
    assert "wall-clock" not in minus and "rng-direct" in minus
    assert set(minus) == ALL_RULES - {"wall-clock"}
    only = select_rules(registry, ["deep-priority-layers"])
    assert only == ["deep-priority-layers"]
    with pytest.raises(LintError, match="unknown rule id"):
        select_rules(registry, ["-bogus"])


def test_rule_subset_selection():
    report = lint("wall_clock", rules=["rng-direct"])
    assert report.clean  # the wall-clock violation is outside the subset


def test_unknown_rule_selection_raises():
    with pytest.raises(LintError, match="unknown rule id"):
        lint("wall_clock", rules=["no-such-rule"])


def test_unknown_suppression_slug_raises(tmp_path):
    bad = tmp_path / "repro" / "sim"
    bad.mkdir(parents=True)
    (bad / "x.py").write_text(
        "import time\n\n\n"
        "def stamp() -> float:\n"
        "    return time.time()  # repro-lint: ignore[wallclock-typo]\n"
    )
    with pytest.raises(LintError, match="wallclock-typo"):
        run_lint([str(tmp_path)])


def test_missing_path_raises():
    with pytest.raises(LintError, match="no such file"):
        run_lint([os.path.join(FIXTURES, "does_not_exist")])


def test_source_tree_is_clean():
    """The repo's own package must pass its own gate, every rule on."""
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    report = run_lint([package_dir])
    assert set(report.rules_run) == ALL_RULES
    assert report.violations == (), "\n".join(
        v.render() for v in report.violations
    )
    # The one known justified suppression: the RunSpec digest memo.
    assert [(v.rule, os.path.basename(v.path)) for v in report.suppressed] \
        == [("deep-frozen-flow", "artifact.py")]


def test_source_tree_is_deep_clean():
    """The whole-program analyses pass over the shipped tree on a plain
    lint, and the digest-memo suppression silences deep-frozen-flow."""
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    report = run_lint([package_dir])
    deep = {rule for rule in ALL_RULES if rule.startswith("deep-")}
    assert deep <= set(report.rules_run)
    deep_violations = [v for v in report.violations if v.rule in deep]
    assert deep_violations == [], "\n".join(
        v.render() for v in deep_violations
    )
    assert any(v.rule == "deep-frozen-flow" for v in report.suppressed)
    assert report.schema_fingerprint is not None
    assert isinstance(report.schema_version, int)


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
