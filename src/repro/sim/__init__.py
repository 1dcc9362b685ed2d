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

Pending events live in one lazy-deletion heap owned by the simulator;
the test suite fuzzes it, reschedules and paused runs included, against
a plain reference heap event loop. The twin checks in
:mod:`repro.experiments.twincheck` gate whole runs: tie-order
independence (``race``) and fluid/discrete equivalence (``fluid``).

The package also holds the hybrid-mode pieces, imported by module path
because they build on :mod:`repro.ntier`, which itself imports the
engine: :mod:`repro.sim.fluid` (the aggregate integrator) and
:mod:`repro.sim.governor` (the discrete/fluid switch).
"""

from repro.sim.engine import Simulator
from repro.sim.event import EventHandle
from repro.sim.process import PeriodicProcess

__all__ = [
    "Simulator",
    "EventHandle",
    "PeriodicProcess",
]
