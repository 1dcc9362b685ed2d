"""Discrete-event simulation engine.

A minimal, fast event-calendar simulator:

* :class:`~repro.sim.engine.Simulator` — the clock and run loop.
* :class:`~repro.sim.event.EventHandle` — a cancellable scheduled callback.
* :class:`~repro.sim.process.PeriodicProcess` — a fixed-interval task
  (used for controller ticks and metric collection).

The engine is deliberately callback-based (no coroutines): the n-tier
model schedules only a handful of event types per request, and plain
callbacks keep the hot path allocation-light, per the profiling guidance
in the HPC Python guides.

Pending events live in a two-level slotted wheel
(:mod:`repro.sim.calendar`) that executes exactly the event sequence of
a single lazy-deletion heap; the test suite fuzzes it against a
reference heap event loop. The twin checks in
:mod:`repro.experiments.twincheck` gate whole runs: tie-order
independence (``race``) and fluid/discrete equivalence (``fluid``).
"""

from importlib import import_module
from typing import Any

from repro.sim.calendar import WheelCalendar
from repro.sim.engine import Simulator
from repro.sim.event import EventHandle
from repro.sim.process import PeriodicProcess

__all__ = [
    "Simulator",
    "EventHandle",
    "PeriodicProcess",
    "WheelCalendar",
    "FlowModel",
    "DiscreteFlowModel",
    "FluidFlowModel",
    "HybridFlowModel",
    "FluidStepper",
    "ModeGovernor",
    "GovernorConfig",
    "SIM_MODES",
]

# The flow-model layer sits above the n-tier model (the fluid stepper
# integrates repro.ntier state), while the n-tier servers import the
# engine from this package — so these symbols are re-exported lazily to
# keep the package import acyclic.
_FLOW_EXPORTS = {
    "FlowModel": "repro.sim.flowmodel",
    "DiscreteFlowModel": "repro.sim.flowmodel",
    "FluidFlowModel": "repro.sim.flowmodel",
    "HybridFlowModel": "repro.sim.flowmodel",
    "SIM_MODES": "repro.sim.flowmodel",
    "FluidStepper": "repro.sim.fluid",
    "ModeGovernor": "repro.sim.governor",
    "GovernorConfig": "repro.sim.governor",
}


def __getattr__(name: str) -> Any:
    module = _FLOW_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)
