"""Tests for the hybrid-mode governor (repro.sim.governor)."""

import pytest

from repro.control.bus import ControlBus
from repro.control.events import (
    MODE_KINDS,
    NOOP,
    THRESHOLD_TRIP,
    DecisionEvent,
)
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, ServerCrashSpec
from repro.monitoring.records import RequestLog
from repro.sim.fluid import FluidStepper
from repro.sim.governor import MIN_DWELL, MODE_DISCRETE, MODE_FLUID, ModeGovernor
from repro.workload.generator import OpenLoopGenerator, RequestFactory
from repro.workload.trace import Trace

from tests.conftest import build_app, tiny_mix


def make_rig(sim, rng, trace, *, faults=None, bus=None):
    """A full hybrid wiring: app, open-loop generator, stepper, governor."""
    app = build_app(sim, db_a_sat=1000)
    factory = RequestFactory(tiny_mix(), rng.stream("demand"))
    generator = OpenLoopGenerator(
        sim, app, trace, factory, rng.stream("arrivals"), think_time=1.0
    )
    stepper = FluidStepper(
        sim, app, tiny_mix(), rng.stream("fluid"), RequestLog(),
        think_time=1.0, trace=trace,
    )
    governor = ModeGovernor(
        sim, app, generator, stepper, factory,
        bus if bus is not None else ControlBus(),
        trace=trace, faults=faults,
    )
    return app, generator, stepper, governor


def test_flat_trace_enters_fluid_and_conserves(sim, rng):
    trace = Trace("flat", [0.0, 60.0], [100.0, 100.0])
    app, generator, stepper, governor = make_rig(sim, rng, trace)
    generator.start()
    governor.start()
    sim.run(until=60.0)
    governor.finish()
    generator.stop()
    sim.run(until=90.0)  # drain
    assert governor.fluid_entries >= 1
    assert governor.mode == MODE_DISCRETE
    # The stepper's ledger closed exactly: everything it generated
    # either completed in fluid or was handed back as discrete requests.
    assert stepper.generated == stepper.completed + stepper.materialised
    assert app.in_flight == 0


def test_bursty_trace_stays_discrete(sim, rng):
    # A sawtooth swinging 100 <-> 500 every 10 s: the 15 s inspection
    # window always sees most of the swing, far above the 10% threshold.
    knots = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    users = [100.0, 500.0, 100.0, 500.0, 100.0, 500.0, 100.0]
    trace = Trace("saw", knots, users)
    app, generator, stepper, governor = make_rig(sim, rng, trace)
    generator.start()
    governor.start()
    sim.run(until=60.0)
    governor.finish()
    assert governor.fluid_entries == 0
    assert governor.mode == MODE_DISCRETE
    assert stepper.generated == 0


def test_fault_window_guard(sim, rng):
    trace = Trace("flat", [0.0, 120.0], [100.0, 100.0])
    plan = FaultPlan((ServerCrashSpec(tier="app", at=60.0),))
    _, _, _, governor = make_rig(sim, rng, trace, faults=plan)
    start, end = plan.specs[0].window
    # Inside the +-10 s guard band the trigger names the fault window.
    assert governor.discrete_trigger(start - 5.0) == "fault window guard"
    assert governor.discrete_trigger(end + 5.0) == "fault window guard"
    # Well clear of it (and of the initial settle), no trigger.
    assert governor.discrete_trigger(end + 30.0) is None


def test_material_decision_holds_discrete_for_settle_window(sim, rng):
    trace = Trace("flat", [0.0, 120.0], [100.0, 100.0])
    bus = ControlBus()
    _, _, _, governor = make_rig(sim, rng, trace, bus=bus)
    governor.start()
    assert governor.discrete_trigger(50.0) is None
    bus.publish(
        DecisionEvent(time=50.0, kind=THRESHOLD_TRIP, tier="app", value=1)
    )
    assert governor.discrete_trigger(54.0) == "controller activity settle"
    assert governor.discrete_trigger(59.0) is None


def test_noop_and_mode_events_do_not_reset_settle(sim, rng):
    trace = Trace("flat", [0.0, 120.0], [100.0, 100.0])
    bus = ControlBus()
    _, _, _, governor = make_rig(sim, rng, trace, bus=bus)
    governor.start()
    bus.publish(DecisionEvent(time=50.0, kind=NOOP, tier="app"))
    bus.publish(
        DecisionEvent(time=50.0, kind=MODE_KINDS[0], tier="all", value=3)
    )
    assert governor.discrete_trigger(51.0) is None


def test_min_dwell_gates_entry_into_fluid(sim, rng):
    trace = Trace("flat", [0.0, 120.0], [100.0, 100.0])
    _, generator, _, governor = make_rig(sim, rng, trace)
    generator.start()
    governor._last_switch = 2.0
    governor._tick(2.0 + MIN_DWELL - 1.0)  # inside the dwell window: stays discrete
    assert governor.mode == MODE_DISCRETE
    governor._tick(2.0 + MIN_DWELL + 1.0)  # dwell expired, trace quiet: switch
    assert governor.mode == MODE_FLUID


def test_switches_publish_mode_decision_events(sim, rng):
    trace = Trace("flat", [0.0, 60.0], [100.0, 100.0])
    bus = ControlBus()
    seen: list[DecisionEvent] = []
    bus.subscribe(seen.append)
    _, generator, stepper, governor = make_rig(sim, rng, trace, bus=bus)
    generator.start()
    governor.start()
    sim.run(until=60.0)
    governor.finish()
    generator.stop()
    kinds = [e.kind for e in seen if e.kind in MODE_KINDS]
    assert MODE_KINDS[0] in kinds and MODE_KINDS[1] in kinds
    # Alternating, starting with a fluid entry, all from the governor.
    mode_events = [e for e in seen if e.kind in MODE_KINDS]
    assert all(e.source == "governor" for e in mode_events)
    for i, event in enumerate(mode_events):
        assert event.kind == MODE_KINDS[i % 2]
    # The final event closes the run back into discrete mode.
    assert mode_events[-1].kind == MODE_KINDS[1]
    handed_back = sum(
        int(e.value or 0) for e in mode_events if e.kind == MODE_KINDS[1]
    )
    assert handed_back == stepper.materialised


def test_double_start_rejected(sim, rng):
    trace = Trace("flat", [0.0, 10.0], [10.0, 10.0])
    _, _, _, governor = make_rig(sim, rng, trace)
    governor.start()
    with pytest.raises(ConfigurationError):
        governor.start()
