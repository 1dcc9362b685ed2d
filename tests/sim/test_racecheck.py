"""The tie-order race detector: engine semantics and runner-level checks.

Engine level: events sharing (time, priority) are *concurrent* — the
``reverse`` tie order executes each such batch backwards, so any
observable that depends on intra-batch order diverges between the two
orders, while priority-separated events stay put. Runner level: the
``race`` twin check (:func:`repro.experiments.twincheck.run_twin_check`)
runs a spec under both orders and raises :class:`TwinDivergenceError`
on divergence; at HEAD the check must be clean, and a deliberately
broken tie-break (the VM sampler demoted into the controller's
concurrency batch) must be caught.
"""

import pytest

import repro.experiments.runner as runner_mod
from repro.errors import ConfigurationError, TwinDivergenceError
from repro.experiments.artifact import RunSpec
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.twincheck import TwinCheckReport, run_twin_check
from repro.sim.engine import (
    PRIORITY_CONTROLLER,
    PRIORITY_SAMPLER,
    TIE_ORDERS,
    Simulator,
)


def _spec(duration: float = 40.0) -> RunSpec:
    return RunSpec(
        framework="conscale",
        config=ScenarioConfig(
            name="racecheck-test", trace_name="dual_phase",
            load_scale=300.0, duration=duration, seed=2,
        ),
    )


# ----------------------------------------------------------------------
# engine-level semantics
# ----------------------------------------------------------------------

def _order_sensitive_run(tie_order: str, priorities: tuple[int, int]) -> list:
    """Two same-time events appending to a shared log."""
    sim = Simulator(tie_order=tie_order)
    log: list[str] = []
    sim.schedule(1.0, log.append, "first-scheduled", priority=priorities[0])
    sim.schedule(1.0, log.append, "second-scheduled", priority=priorities[1])
    sim.run()
    return log


def test_tie_orders_exposed_and_validated():
    assert TIE_ORDERS == ("fifo", "reverse")
    with pytest.raises(ConfigurationError, match="tie_order"):
        Simulator(tie_order="shuffled")


def test_same_priority_ties_reverse_under_permuted_order():
    fifo = _order_sensitive_run("fifo", (0, 0))
    rev = _order_sensitive_run("reverse", (0, 0))
    assert fifo == ["first-scheduled", "second-scheduled"]
    assert rev == ["second-scheduled", "first-scheduled"]


def test_priority_separated_events_are_immune_to_tie_order():
    for order in TIE_ORDERS:
        assert _order_sensitive_run(order, (0, PRIORITY_CONTROLLER)) == [
            "first-scheduled", "second-scheduled",
        ]
        assert _order_sensitive_run(order, (PRIORITY_CONTROLLER, 0)) == [
            "second-scheduled", "first-scheduled",
        ]


def test_reverse_order_preserves_causality_within_a_timestamp():
    """An event scheduled *during* a concurrent batch still runs after
    its creator — permutation applies to pending events only."""
    sim = Simulator(tie_order="reverse")
    log: list[str] = []

    def parent(tag: str) -> None:
        log.append(tag)
        sim.schedule(1.0, log.append, f"child-of-{tag}")

    sim.schedule(1.0, parent, "a")
    sim.schedule(1.0, parent, "b")
    sim.run()
    assert log[0] in ("a", "b")
    assert log.index("child-of-a") > log.index("a")
    assert log.index("child-of-b") > log.index("b")


def test_tie_counters_count_concurrent_batches():
    sim = Simulator(tie_order="reverse")
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)  # alone at its instant: no batch
    sim.run()
    assert sim.tie_batches == 1
    assert sim.tie_events == 3


def test_fifo_simulator_reports_zero_tie_batches():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.tie_order == "fifo"
    assert sim.tie_batches == 0


# ----------------------------------------------------------------------
# runner-level: the race check proper
# ----------------------------------------------------------------------

def test_execute_spec_rejects_a_used_simulator():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(ConfigurationError, match="fresh simulator"):
        execute_spec(_spec(), sim=sim)


def test_race_check_clean_at_head():
    report = run_twin_check(_spec(), "race")
    assert isinstance(report, TwinCheckReport)
    assert report.check == "race"
    # The check is vacuous unless the run actually exercised
    # same-(time, priority) batches.
    assert report.tie_batches > 0
    assert report.tie_events >= 2 * report.tie_batches
    assert report.spec_digest == _spec().digest()
    text = report.describe()
    assert text.startswith("race twin check clean")
    assert "no observable divergence" in text


def test_broken_tie_break_is_caught(monkeypatch):
    """Demote the VM sampler into the controller's priority: a launch
    decided at a sample instant is then counted (or not) depending on
    which concurrent event pops first — the observer race the priority
    layering exists to prevent."""
    monkeypatch.setattr(runner_mod, "PRIORITY_SAMPLER", PRIORITY_CONTROLLER)
    with pytest.raises(TwinDivergenceError) as excinfo:
        run_twin_check(_spec(), "race")
    message = str(excinfo.value)
    assert message.startswith(f"race twin check diverged on {_spec().label}")
    assert "vm timeline" in message
    assert "concurrent batch" in message


def test_head_priorities_are_actually_layered():
    """Guard the seam the broken-tie-break test monkeypatches: the real
    sampler priority must differ from every model/controller priority."""
    assert PRIORITY_SAMPLER not in (0, PRIORITY_CONTROLLER)
    assert runner_mod.PRIORITY_SAMPLER == PRIORITY_SAMPLER

