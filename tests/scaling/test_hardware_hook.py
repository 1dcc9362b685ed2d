"""The hardware-change hook: ``BaseController.after_hardware_change``.

ConScale re-allocates soft resources after every completed hardware
action (the paper's Fig. 8 loop). The hook's contract, driven here on a
small stack with fault awareness on:

* it runs exactly once per actuator event of the five hardware-change
  kinds (bootstrap, scale-out, vertical scale-up, scale-in, crash);
* it runs after the fault-aware reactions to the same event;
* it ignores an event of the same kind that another source publishes.
"""

from __future__ import annotations

from repro.cloud.hypervisor import Hypervisor
from repro.control.bus import ControlBus
from repro.control.events import (
    NOOP,
    PREWARM_ISSUED,
    SCALEIN_SUSPENDED,
    DecisionEvent,
)
from repro.control.trace import DecisionTrace
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, DB, WEB, NTierApplication, SoftResourceAllocation
from repro.scaling.actuator import Actuator
from repro.scaling.controller import BaseController
from repro.scaling.factory import ServerFactory
from repro.sim.engine import Simulator

from tests.conftest import simple_capacity

HARDWARE_CHANGES = (
    "bootstrap_ready",
    "scale_out_ready",
    "scale_up_done",
    "scale_in_done",
    "server_ejected",
)
MARKER = "after_hardware_change"


class Recorder(BaseController):
    """Records each hook call and marks it in the trace."""

    name = "recorder"

    def __init__(self, *args, **kwargs) -> None:
        self.calls: list[tuple[str, str]] = []
        super().__init__(*args, **kwargs)

    def after_hardware_change(self, tier: str, kind: str) -> None:
        self.calls.append((tier, kind))
        self.emit(NOOP, tier, detail=kind, reason=MARKER)


def drive():
    """Bootstrap 1/2/2, then scale out, up and in, then crash a DB."""
    sim = Simulator()
    soft = SoftResourceAllocation(100, 60, 40)
    app = NTierApplication(sim, soft)
    factory = ServerFactory(sim)
    for tier in (WEB, APP, DB):
        factory.set_template(tier, simple_capacity(1000), soft.for_tier(tier))
    hypervisor = Hypervisor(sim, prep_period=2.0)
    warehouse = MetricWarehouse(sim)
    bus = ControlBus()
    trace = DecisionTrace().attach(bus)
    actuator = Actuator(sim, app, hypervisor, factory, warehouse, bus=bus)
    controller = Recorder(sim, warehouse, actuator)
    controller.enable_fault_awareness()
    for tier, n in zip((WEB, APP, DB), (1, 2, 2)):
        actuator.bootstrap(tier, n)
    sim.run(until=1.0)
    actuator.scale_out(APP)
    sim.run(until=4.0)
    assert actuator.scale_up(DB)
    sim.run(until=7.0)
    actuator.scale_in(APP)
    sim.run(until=9.0)
    actuator.crash_server("db-1")
    # A scale-in trip needs 30 s of low load, longer than this run, so
    # every hardware change comes from the calls above.
    sim.run(until=14.0)
    controller.stop()
    return sim, bus, trace, controller


def actuator_changes(trace):
    return [
        (e.tier, e.kind)
        for e in trace
        if e.source == "actuator" and e.kind in HARDWARE_CHANGES
    ]


def test_hook_runs_once_per_actuator_hardware_event():
    _, _, trace, controller = drive()
    changes = actuator_changes(trace)
    assert controller.calls == changes
    # Every kind shows up: five bootstraps, the scale-out, the scale-up,
    # the scale-in, the crash and the crash's pre-warmed replacement.
    assert [kind for _, kind in changes] == (
        ["bootstrap_ready"] * 5
        + ["scale_out_ready", "scale_up_done", "scale_in_done",
           "server_ejected", "scale_out_ready"]
    )


def test_hook_runs_after_the_fault_aware_reactions():
    _, _, trace, _ = drive()
    events = trace.all()

    def first(match):
        return next(i for i, e in enumerate(events) if match(e))

    ejected = first(lambda e: e.kind == "server_ejected")
    suspended = first(lambda e: e.kind == SCALEIN_SUSPENDED)
    prewarm = first(lambda e: e.kind == PREWARM_ISSUED)
    marker = first(lambda e: e.reason == MARKER and e.detail == "server_ejected")
    assert ejected < suspended < prewarm < marker


def test_hook_ignores_hardware_kinds_from_other_sources():
    sim, bus, trace, controller = drive()
    before = list(controller.calls)
    for kind in HARDWARE_CHANGES:
        bus.publish(DecisionEvent(sim.now, kind, APP, source="elsewhere"))
    assert controller.calls == before
    assert actuator_changes(trace) == before
