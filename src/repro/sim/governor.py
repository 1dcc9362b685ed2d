"""The hybrid-mode governor: when to simulate fluid vs discrete.

The :class:`ModeGovernor` ticks once a second (at
:data:`~repro.sim.engine.PRIORITY_GOVERNOR`, after the warehouse has
aggregated the instant but before controllers act) and decides whether
the run should currently burn per-request discrete events or advance
the aggregate :class:`~repro.sim.fluid.FluidStepper`:

* **trace derivative** — the user trace is inspected over a small
  look-behind/look-ahead window; relative variation above a threshold
  means a burst is in progress (or imminent), which is exactly when
  per-request resolution matters;
* **fault windows** — the declarative :class:`~repro.faults.plan.
  FaultPlan` is known up front, so the governor keeps a guard band of
  discrete simulation around every fault episode;
* **controller activity** — any *material* decision on the control bus
  (threshold trips, hardware lifecycle, soft-cap changes, fault
  reactions) holds the run discrete for a settle window, so scaling
  transients are simulated at full resolution;
* a **minimum dwell** suppresses mode thrash.

Switching discrete→fluid suspends the open-loop generator's arrival
chain; in-flight discrete requests simply drain through the normal
machinery while the fluid state ramps up from empty. Switching back
halts the stepper and re-materialises its integer outstanding count as
fresh discrete requests, conserving requests exactly. Every switch is
published on the control bus as a :data:`~repro.control.events.
MODE_KINDS` decision event, so mode history rides the decision trace
like any other control-plane action.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.control.events import (
    MODE_KINDS,
    NOOP,
    STALE_HOLD,
    THRESHOLD_TRIP,
    DecisionEvent,
)
from repro.errors import ConfigurationError
from repro.sim.engine import PRIORITY_GOVERNOR, Simulator
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:
    from repro.control.bus import ControlBus
    from repro.faults.plan import FaultPlan
    from repro.ntier.app import NTierApplication
    from repro.sim.fluid import FluidStepper
    from repro.workload.generator import OpenLoopGenerator, RequestFactory
    from repro.workload.trace import Trace

__all__ = ["ModeGovernor", "MODE_DISCRETE", "MODE_FLUID"]

MODE_DISCRETE = "discrete"
MODE_FLUID = "fluid"

_FLUID_ENTERED, _DISCRETE_ENTERED = MODE_KINDS


# Switching thresholds.
#: Governor tick interval (seconds), also the trace sampling step.
TICK = 1.0
#: Relative trace variation over the inspection window above which
#: the run stays discrete: ``(max - min) / mean``.
DERIV_THRESHOLD = 0.10
#: Seconds of trace inspected behind and ahead of now.
LOOKBACK = 5.0
LOOKAHEAD = 10.0
#: Guard band of discrete simulation around every fault window.
FAULT_GUARD = 10.0
#: Seconds the run stays discrete after a material control-plane
#: decision (scale actions, cap changes, fault reactions).
SETTLE = 8.0
#: Minimum seconds between mode switches.
MIN_DWELL = 5.0


class ModeGovernor:
    """Switches a hybrid run between discrete and fluid simulation."""

    def __init__(
        self,
        sim: Simulator,
        app: "NTierApplication",
        generator: "OpenLoopGenerator",
        stepper: "FluidStepper",
        factory: "RequestFactory",
        bus: "ControlBus",
        *,
        trace: "Trace",
        faults: "FaultPlan | None" = None,
    ) -> None:
        self.sim = sim
        self.app = app
        self.generator = generator
        self.stepper = stepper
        self.factory = factory
        self.bus = bus
        self.trace = trace
        self.faults = faults
        self.mode = MODE_DISCRETE
        self.fluid_entries = 0
        self._proc: PeriodicProcess | None = None
        self._last_switch = -float("inf")
        self._last_material = -float("inf")
        self._finished = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin governing at the current simulation time (discrete)."""
        if self._proc is not None:
            raise ConfigurationError("governor already started")
        self.bus.subscribe(self._on_decision)
        self._proc = PeriodicProcess(
            self.sim, TICK, self._tick, priority=PRIORITY_GOVERNOR
        )

    def finish(self) -> None:
        """End governing: drop back to discrete so the run can drain.

        Called by the runner once the generation window closes. Any
        fluid outstanding mass is re-materialised as discrete requests,
        which then drain through the normal grace period. The bus
        handler stays subscribed; what it records feeds only the ticks,
        which end here.
        """
        self._finished = True
        if self.mode == MODE_FLUID:
            self._to_discrete("end of generation window")
        if self._proc is not None:
            self._proc.stop()
            self._proc = None

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def _on_decision(self, event: DecisionEvent) -> None:
        if event.kind == NOOP or event.kind in MODE_KINDS:
            return
        if event.is_hardware or event.is_soft or event.is_fault or (
            event.kind in (THRESHOLD_TRIP, STALE_HOLD)
        ):
            self._last_material = max(self._last_material, event.time)

    def _trace_variation(self, now: float) -> float:
        """Relative user variation over the inspection window."""
        t0 = max(0.0, now - LOOKBACK)
        t1 = now + LOOKAHEAD
        lo = float("inf")
        hi = 0.0
        total = 0.0
        count = 0
        t = t0
        while t <= t1 + 1e-9:
            users = self.trace.users_at(t)
            lo = min(lo, users)
            hi = max(hi, users)
            total += users
            count += 1
            t += TICK
        mean = total / count if count else 0.0
        if mean <= 1e-9:
            return 0.0
        return (hi - lo) / mean

    def _fault_near(self, now: float) -> bool:
        if self.faults is None:
            return False
        for spec in self.faults:
            start, end = spec.window
            if start - FAULT_GUARD <= now <= end + FAULT_GUARD:
                return True
        return False

    def discrete_trigger(self, now: float) -> str | None:
        """The reason the run must be discrete right now, if any."""
        variation = self._trace_variation(now)
        if variation > DERIV_THRESHOLD:
            return f"trace variation {variation:.2f}"
        if self._fault_near(now):
            return "fault window guard"
        if now - self._last_material < SETTLE:
            return "controller activity settle"
        return None

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        if self._finished:
            return
        trigger = self.discrete_trigger(now)
        if self.mode == MODE_DISCRETE:
            if trigger is None and now - self._last_switch >= MIN_DWELL:
                self._to_fluid()
        elif trigger is not None:
            # Dropping back to discrete is safety-critical (a burst or
            # fault is coming), so it ignores the dwell timer.
            self._to_discrete(trigger)

    def _to_fluid(self) -> None:
        now = self.sim.now
        self.generator.suspend()
        self.stepper.start()
        self.mode = MODE_FLUID
        self.fluid_entries += 1
        self._last_switch = now
        self._emit(_FLUID_ENTERED, self.app.in_flight, "quiescent trace")

    def _to_discrete(self, reason: str) -> None:
        now = self.sim.now
        handover = self.stepper.hand_back(self.factory)
        if not self._finished:
            self.generator.resume()
        self.mode = MODE_DISCRETE
        self._last_switch = now
        self._emit(_DISCRETE_ENTERED, handover, reason)

    def _emit(self, kind: str, value: int, reason: str) -> None:
        self.bus.publish(
            DecisionEvent(
                time=self.sim.now,
                kind=kind,
                tier="all",
                value=value,
                detail=self.mode,
                source="governor",
                reason=reason,
            )
        )
