"""Acceptance tests for fault injection riding the experiment engine.

The ISSUE's acceptance criteria, end to end:

* a faulted ``RunSpec`` is exactly as deterministic as a fault-free one
  — same digest, identical artifact signature across repeated runs and
  between inline and process-pool execution;
* a crash run diffs against its fault-free twin (``repro diff`` works
  because the fault plan rides the spec, not the scenario) and its
  trace shows the ejection + recovery decisions;
* a telemetry-dropout run never applies a soft cap justified by an SCT
  estimate while the feed is stale (the controller holds, auditable via
  STALE_HOLD / stale no-ops), and its tail stays within 10 % of the
  fault-free twin's p95.

Runs use the reduced scale of ``test_engine`` (load_scale 300, 60 s).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.artifact import RunSpec, content_digest
from repro.experiments.diff import diff_artifacts
from repro.experiments.engine import ExperimentEngine
from repro.experiments.resilience import (
    RESILIENCE_HEADERS,
    STORYLINE_HEADERS,
    resilience_fault_plans,
    resilience_rows,
    resilience_scenario,
    resilience_suite,
    storyline_rows,
    storyline_suite,
    storyline_ttr,
)
from repro.experiments.runner import execute_spec
from repro.faults.storyline import storyline_names


def small_resilience_config():
    return resilience_scenario(
        load_scale=300.0, duration=60.0, seed=2, trace_name="dual_phase"
    )


@pytest.fixture(scope="module")
def plans():
    return resilience_fault_plans(60.0)


@pytest.fixture(scope="module")
def baseline():
    return execute_spec(RunSpec("conscale", small_resilience_config()))


@pytest.fixture(scope="module")
def crashed(plans):
    return execute_spec(
        RunSpec("conscale", small_resilience_config(), faults=plans["crash"])
    )


@pytest.fixture(scope="module")
def dropped(plans):
    return execute_spec(
        RunSpec("conscale", small_resilience_config(), faults=plans["dropout"])
    )


# ----------------------------------------------------------------------
# determinism: faults do not cost reproducibility
# ----------------------------------------------------------------------

def test_fault_plan_rides_spec_not_scenario(plans):
    plain = RunSpec("conscale", small_resilience_config())
    faulted = RunSpec(
        "conscale", small_resilience_config(), faults=plans["crash"]
    )
    assert plain.digest() != faulted.digest()
    # The scenario digest is shared — the precondition for `repro diff`.
    assert content_digest(plain.config) == content_digest(faulted.config)
    assert faulted.label.endswith("!" + plans["crash"].describe())


def test_faulted_run_reproducible(crashed, plans):
    again = execute_spec(
        RunSpec("conscale", small_resilience_config(), faults=plans["crash"])
    )
    assert again.signature() == crashed.signature()


def test_faulted_run_identical_on_process_backend(crashed, plans):
    spec = RunSpec(
        "conscale", small_resilience_config(), faults=plans["crash"]
    )
    filler = RunSpec("ec2", small_resilience_config())  # forces a real pool
    via_pool = ExperimentEngine(jobs=2, use_cache=False).run_many(
        [spec, filler]
    )[0]
    assert via_pool.signature() == crashed.signature()


# ----------------------------------------------------------------------
# crash: diffable against the fault-free twin
# ----------------------------------------------------------------------

def test_crash_run_diffs_against_fault_free_twin(baseline, crashed):
    diff = diff_artifacts(baseline, crashed)
    assert diff.divergence is not None  # the traces demonstrably fork
    kinds = {e.kind for e in crashed.actions.faults()}
    assert {"fault_injected", "server_ejected"} <= kinds
    assert baseline.actions.faults() == []
    # The crash forces different *decisions*, not just noise: the
    # fault-aware loop pre-warms a replacement and suspends scale-in,
    # none of which the fault-free twin ever emits.
    crashed_kinds = {e.kind for e in crashed.actions}
    assert "prewarm_issued" in crashed_kinds
    assert "scalein_suspended" in crashed_kinds
    baseline_kinds = {e.kind for e in baseline.actions}
    assert "prewarm_issued" not in baseline_kinds
    assert "scalein_suspended" not in baseline_kinds


def test_crash_accounting_and_recovery(crashed):
    assert crashed.failed > 0
    summary = crashed.resilience
    assert summary is not None
    assert len(summary.episodes) == 1
    assert summary.episodes[0].kind == "crash"
    assert summary.episodes[0].failed == crashed.failed
    (recovery,) = summary.recovery_s
    assert np.isfinite(recovery)  # tail returned to pre-fault baseline


# ----------------------------------------------------------------------
# dropout: graceful degradation, never actuating on stale estimates
# ----------------------------------------------------------------------

def test_dropout_controller_holds_while_stale(dropped, plans):
    (spec,) = plans["dropout"]
    start, end = spec.window
    holds = [
        e for e in dropped.actions.all() if "telemetry stale" in e.reason
    ]
    assert holds, "no auditable hold decisions during the blackout"
    assert all(start < e.time <= end + 1.0 for e in holds)
    # The acceptance bar: no soft cap justified by an SCT estimate may
    # be applied while the feed is dark.
    acted_blind = [
        e
        for e in dropped.actions.all()
        if e.is_soft and e.estimate is not None and start < e.time <= end
    ]
    assert acted_blind == []


def test_dropout_tail_within_ten_percent_of_fault_free(baseline, dropped):
    p95_base = baseline.tail().p95
    p95_drop = dropped.tail().p95
    assert abs(p95_drop - p95_base) / p95_base < 0.10


# ----------------------------------------------------------------------
# the suite grid and its report rows
# ----------------------------------------------------------------------

def test_suite_shape_and_order():
    from repro.scaling.registry import registered_frameworks

    specs = resilience_suite(duration=60.0)
    # Every registered framework crossed with baseline + 5 fault classes.
    n_frameworks = len(registered_frameworks())
    assert n_frameworks >= 6  # the built-ins, plus any in-test plugins
    assert len(specs) == n_frameworks * 6
    # Stable order: frameworks outer, baseline first within each.
    assert [s.framework for s in specs[:6]] == ["ec2"] * 6
    assert specs[0].faults is None and specs[6].faults is None
    assert len({s.digest() for s in specs}) == len(specs)


def test_resilience_rows_match_headers(baseline, crashed):
    rows = resilience_rows([baseline, crashed])
    assert all(len(row) == len(RESILIENCE_HEADERS) for row in rows)
    assert rows[0][1] == "none"
    assert rows[1][1] == crashed.spec.faults.describe()
    assert rows[1][3] == crashed.failed
    assert rows[1][6] != "-"  # the crash episode got a recovery figure


def test_cli_resilience_subcommand(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([
        "resilience", "--frameworks", "ec2", "--trace", "dual_phase",
        "--scale", "300", "--duration", "60", "--seed", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "crash:db[0]@24" in out
    assert "dropout" in out and "timeout" in out
    assert out.count("ec2") == 6


# ----------------------------------------------------------------------
# the storyline axis: compound incidents, aware vs blind pairs
# ----------------------------------------------------------------------

def _storyline_trio():
    """The conscale az-outage trio at test scale: free, aware, blind."""
    return storyline_suite(
        load_scale=300.0, duration=60.0, seed=2,
        frameworks=("conscale",), trace_name="dual_phase",
        storylines=("az-outage",),
    )


@pytest.fixture(scope="module")
def story_artifacts():
    return [execute_spec(spec) for spec in _storyline_trio()]


def test_storyline_suite_shape_and_pairing():
    specs = storyline_suite(duration=60.0)
    from repro.scaling.registry import registered_frameworks

    n_frameworks = len(registered_frameworks())
    n_stories = len(storyline_names())
    assert n_stories >= 4
    # Per framework: the fault-free twin, then an aware/blind pair per
    # storyline.
    assert len(specs) == n_frameworks * (1 + 2 * n_stories)
    per_fw = specs[: 1 + 2 * n_stories]
    assert per_fw[0].faults is None
    for aware, blind in zip(per_fw[1::2], per_fw[2::2]):
        assert aware.faults == blind.faults  # same lowered incident
        assert aware.overrides.controller_params is None
        assert dict(blind.overrides.controller_params) == {
            "fault_aware": False
        }
    assert len({s.digest() for s in specs}) == len(specs)


def test_storyline_rows_match_headers(story_artifacts):
    rows = storyline_rows(story_artifacts)
    assert all(len(row) == len(STORYLINE_HEADERS) for row in rows)
    free, aware, blind = rows
    assert free[1] == "none" and free[2] == "yes"
    assert aware[1] == "az-outage" and aware[2] == "yes"
    assert blind[1] == "az-outage" and blind[2] == "no"
    # The compound columns are populated for the storylined rows.
    assert aware[6] != "-" and aware[8] > 0


def test_storyline_ttr_prefers_the_fault_free_twin(story_artifacts):
    free, aware, _ = story_artifacts
    assert np.isnan(storyline_ttr(free))  # no episodes, nothing to score
    with_twin = storyline_ttr(aware, free)
    # Either way the capacity-restoration floor is part of the figure.
    assert np.isnan(with_twin) or with_twin >= aware.resilience.restore_s


def test_storylined_twins_diff_and_survive_the_process_backend(
    story_artifacts,
):
    free, aware, blind = story_artifacts
    diff = diff_artifacts(aware, blind)
    assert diff.divergence is not None  # awareness changes decisions
    specs = _storyline_trio()
    via_pool = ExperimentEngine(jobs=2, use_cache=False).run_many(specs)
    for serial, pooled in zip(story_artifacts, via_pool):
        assert pooled.signature() == serial.signature()


def test_cli_resilience_storylines(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([
        "resilience", "--frameworks", "conscale", "--trace", "dual_phase",
        "--scale", "300", "--duration", "60", "--seed", "2",
        "--storylines", "az-outage",
    ]) == 0
    out = capsys.readouterr().out
    assert "az-outage" in out
    assert "ttr_s" in out and "worst_p99_ms" in out
    assert "yes" in out and "no" in out


def test_cli_resilience_unknown_storyline(capsys):
    from repro.cli import main

    assert main(["resilience", "--storylines", "meteor-strike"]) == 2
    err = capsys.readouterr().err
    assert "meteor-strike" in err and "az-outage" in err


def test_cli_run_storyline_reports_recovery_actions(
    capsys, tmp_path, monkeypatch
):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([
        "run", "conscale", "--trace", "dual_phase", "--scale", "300",
        "--duration", "60", "--seed", "2", "--topology", "1,2,2",
        "--storyline", "az-outage:db:24:12",
    ]) == 0
    out = capsys.readouterr().out
    assert "conservation ok" in out
    assert "recovery actions:" in out
    assert "scalein_suspended=" in out and "prewarm_issued=" in out


def test_cli_faults_and_storyline_mutually_exclusive(capsys):
    from repro.cli import main

    assert main([
        "run", "conscale", "--trace", "dual_phase", "--scale", "300",
        "--duration", "60", "--faults", "crash:db:24",
        "--storyline", "az-outage",
    ]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_trace_export_jsonl(capsys, tmp_path, monkeypatch):
    import json

    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([
        "trace", "export", "conscale", "--trace", "dual_phase",
        "--scale", "300", "--duration", "60", "--seed", "2",
        "--topology", "1,2,2",
        "--storyline", "az-outage:db:24:12", "--jsonl",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "repro-trace"
    assert header["storyline"] == "az-outage"
    assert header["events"] == len(lines) - 1
    events = [json.loads(line) for line in lines[1:]]
    kinds = {e["kind"] for e in events}
    assert "fault_injected" in kinds and "prewarm_issued" in kinds
    assert all(
        a["t"] <= b["t"] for a, b in zip(events, events[1:])
    )
