"""The Decision Controller loop shared by all scaling frameworks."""

from __future__ import annotations

from repro.control.bus import ControlBus
from repro.control.events import (
    NOOP,
    SCALEIN_SUSPENDED,
    THRESHOLD_TRIP,
    DecisionEvent,
)
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, DB, NTierApplication
from repro.scaling.actuator import Actuator
from repro.scaling.faultaware import FaultAwareMixin
from repro.scaling.policy import ThresholdPolicy, TierPolicyConfig
from repro.sim.engine import PRIORITY_CONTROLLER, Simulator
from repro.sim.process import PeriodicProcess

__all__ = [
    "BaseController",
    "DECISION_TICK",
    "cap_drifted",
    "admission_pressured",
    "probe_up",
]

#: Seconds between the controller's decision ticks.
DECISION_TICK = 1.0

#: Relative drift from the current soft cap that a new target must
#: exceed before ConScale's or MPC's periodic correction re-actuates.
_CAP_HYSTERESIS = 0.2

#: The actuator's completed hardware changes, each of which reaches
#: :meth:`BaseController.after_hardware_change`.
_HARDWARE_CHANGES = (
    "bootstrap_ready",
    "scale_out_ready",
    "scale_up_done",
    "scale_in_done",
    "server_ejected",
)


class BaseController(FaultAwareMixin):
    """Threshold-driven hardware scaling at a 1 s decision tick.

    Subclasses implement the soft-resource behaviour by overriding
    :meth:`after_hardware_change` (invoked once per completed hardware
    change of the actuator: a bootstrap or scale-out VM ready, a
    vertical scale-up applied, a scale-in drained, a crashed server
    ejected) and :meth:`periodic_adapt` (invoked on every tick after
    the hardware decisions).

    Every decision — including the ticks where nothing happened — is
    published as a :class:`~repro.control.events.DecisionEvent` on the
    actuator's control bus, giving all frameworks one uniform, auditable
    decision trace. The controller hears the control plane on the same
    bus, through one subscription: :meth:`_on_decision` runs the
    fault-aware reactions, then the hardware-change hook.

    The inherited :class:`~repro.scaling.faultaware.FaultAwareMixin` is
    dormant unless the registry's build path (or a test) calls
    :meth:`~repro.scaling.faultaware.FaultAwareMixin.enable_fault_awareness`;
    when enabled, it reacts to fault lifecycle events and scale-in
    decisions consult it before acting.
    """

    name = "base"

    #: Controllers that estimate optimal concurrency online expose their
    #: estimator here; the experiment runner collects its history into
    #: the artifact for any controller, without framework dispatch.
    estimator = None

    def __init__(
        self,
        sim: Simulator,
        warehouse: MetricWarehouse,
        actuator: Actuator,
        tier_configs: dict[str, TierPolicyConfig] | None = None,
    ) -> None:
        self.sim = sim
        self.warehouse = warehouse
        self.actuator = actuator
        self.bus: ControlBus = actuator.bus
        configs = tier_configs or {
            APP: TierPolicyConfig(),
            DB: TierPolicyConfig(),
        }
        self.policy = ThresholdPolicy(sim, warehouse, actuator, configs)
        self.bus.subscribe(self._on_decision)
        self._process = PeriodicProcess(
            sim, DECISION_TICK, self._tick, priority=PRIORITY_CONTROLLER
        )

    def stop(self) -> None:
        """Stop the decision loop."""
        self._process.stop()

    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        tier: str,
        value: int | None = None,
        detail: str = "",
        reason: str = "",
        estimate: float | None = None,
    ) -> None:
        """Publish one DecisionEvent attributed to this controller."""
        self.bus.publish(
            DecisionEvent(
                time=self.sim.now, kind=kind, tier=tier, value=value,
                detail=detail, source=self.name, reason=reason,
                estimate=estimate,
            )
        )

    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        for tier, config in self.policy.configs.items():
            decision = self.policy.evaluate(tier)
            if decision.action == "out":
                self.emit(THRESHOLD_TRIP, tier, detail="out",
                          reason=decision.reason)
                # Vertical-first: grow an existing server's cores while
                # room remains, otherwise fall back to adding a VM.
                scaled_up = config.prefer_vertical and self.actuator.scale_up(
                    tier, config.vertical_factor, config.max_vcpus
                )
                if not scaled_up:
                    self.actuator.scale_out(tier, reason=decision.reason)
                self.policy.note_action(tier, "out")
            elif decision.action == "in":
                blocked = self.scalein_blocked(tier, now)
                if blocked is not None:
                    # The trip is swallowed, not deferred: the policy's
                    # sustain/cooldown clocks are left untouched so the
                    # decision re-arrives on the next tick if load stays
                    # low once the episode clears.
                    self.emit(SCALEIN_SUSPENDED, tier, detail="veto",
                              reason=blocked)
                else:
                    self.emit(THRESHOLD_TRIP, tier, detail="in",
                              reason=decision.reason)
                    self.actuator.scale_in(tier, reason=decision.reason)
                    self.policy.note_action(tier, "in")
            else:
                self.emit(NOOP, tier, reason=decision.reason)
        self.periodic_adapt(now)

    def _on_decision(self, event: DecisionEvent) -> None:
        """The controller's bus subscription: the fault-aware reactions
        (when enabled), then the hook for an actuator hardware change."""
        if self._fault_aware:
            self._on_fault_event(event)
        if event.kind in _HARDWARE_CHANGES and event.source == self.actuator.source:
            self.after_hardware_change(event.tier, event.kind)

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def after_hardware_change(self, tier: str, kind: str) -> None:
        """Soft-resource reaction to a completed hardware action."""

    def periodic_adapt(self, now: float) -> None:
        """Per-tick soft-resource adaption (ConScale's online path)."""


# ----------------------------------------------------------------------
# soft-cap checks shared by the adaptive controllers (ConScale and MPC)
# ----------------------------------------------------------------------

def cap_drifted(current: int, target: int) -> bool:
    """Whether ``target`` is far enough from the ``current`` cap to
    re-actuate: the hysteresis gate of a periodic correction."""
    if current <= 0:
        return True
    return abs(target - current) / current > _CAP_HYSTERESIS


def admission_pressured(app: NTierApplication, tier: str) -> bool:
    """Whether requests queue at the tier's admission point: a quarter
    of its soft capacity or more is waiting."""
    queued, capacity = app.admission_pressure(tier)
    return capacity > 0 and queued >= 0.25 * capacity


def probe_up(cap: int) -> int:
    """One upward exploration step of a soft cap: 25 %, at least +2."""
    return max(cap + 2, int(cap * 1.25))
