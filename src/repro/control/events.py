"""Typed events flowing over the control-plane bus.

One event type covers everything the control plane does. A
:class:`DecisionEvent` is one control-plane decision or its execution:
a threshold trip, a hardware scale-out/up/in (start and completion), a
soft-resource cap change (with the SCT estimate that justified it), or
an explicit no-op tick with the reason nothing happened.

Every decision a controller takes flows through these events, so the
recorded :class:`~repro.control.trace.DecisionTrace` is the complete,
auditable account of *when* and *why* the control plane acted — the
record Figs. 10-11 of the paper reason about.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DecisionEvent",
    "THRESHOLD_TRIP",
    "NOOP",
    "STALE_HOLD",
    "FORECAST",
    "MPC_CORRECTION",
    "QOS_CONSTRAINT",
    "HARDWARE_KINDS",
    "SOFT_KINDS",
    "POLICY_KINDS",
    "ADVISORY_KINDS",
    "FAULT_KINDS",
    "MODE_KINDS",
    "SCALEIN_SUSPENDED",
    "PREWARM_ISSUED",
    "RECOVERY_SETTLE",
    "RECOVERY_KINDS",
    "declared_kinds",
]

#: A tier's threshold policy decided to scale ("out"/"in" in ``detail``).
THRESHOLD_TRIP = "threshold_trip"
#: A decision tick evaluated a tier and chose to do nothing (see ``reason``).
NOOP = "noop"
#: A controller held its last-known-good caps because telemetry was stale.
STALE_HOLD = "stale_hold"

#: Hardware action kinds, in lifecycle order per action type.
HARDWARE_KINDS = (
    "bootstrap_ready",
    "scale_out_started",
    "scale_out_ready",
    "scale_up_started",
    "scale_up_done",
    "scale_in_started",
    "scale_in_done",
)

#: Soft-resource (pool cap) change kinds.
SOFT_KINDS = (
    "soft_web_threads",
    "soft_app_threads",
    "soft_db_connections",
)

#: A controller published a workload forecast (``estimate`` carries the
#: forecast tier throughput; ``reason`` the trend it extrapolated).
FORECAST = "forecast"
#: An MPC controller corrected a concurrency cap against its queueing
#: model (``value`` is the chosen cap, ``estimate`` the model-predicted
#: throughput at that cap).
MPC_CORRECTION = "mpc_correction"
#: A QoS controller observed its latency chance constraint violated
#: (``value`` counts consecutive breach ticks, ``estimate`` carries the
#: measured violation probability).
QOS_CONSTRAINT = "qos_constraint"

#: Kinds emitted by the decision loop itself rather than the actuator.
POLICY_KINDS = (THRESHOLD_TRIP, NOOP, STALE_HOLD)

#: Advisory kinds: model-internal reasoning steps (forecasts, model
#: corrections, constraint checks) that explain a controller's actions
#: without themselves changing any resource.
ADVISORY_KINDS = (FORECAST, MPC_CORRECTION, QOS_CONSTRAINT)

#: Fault-injection lifecycle kinds: every activation/recovery the
#: injector performs, plus the resilience reactions of the actuator
#: (dead-replica ejection, provisioning retry with backoff).
FAULT_KINDS = (
    "fault_injected",
    "fault_recovered",
    "server_ejected",
    "scale_out_failed",
    "scale_out_retry",
)

#: Recovery-aware control: a controller armed (or enforced) a scale-in
#: suspension because a crash/provisioning episode is open on the tier,
#: or a post-recovery settle window is still running (``detail`` is
#: ``"armed"`` when the episode opens, ``"veto"`` when a scale-in
#: decision is actually swallowed; ``reason`` names the open episode).
SCALEIN_SUSPENDED = "scalein_suspended"
#: Recovery-aware control: a replacement VM launch was issued in direct
#: response to a ``server_ejected`` event (``detail`` carries the
#: ejected server, or ``"expedited-retry"`` when a pending provisioning
#: retry was rescheduled to fire immediately after the fault cleared).
PREWARM_ISSUED = "prewarm_issued"
#: Recovery-aware control: a fault episode closed and the controller
#: opened a settle window (``value`` seconds) during which fresh
#: telemetry is not trusted for destructive actions.
RECOVERY_SETTLE = "recovery_settle"

#: Recovery-aware reaction kinds emitted by the shared
#: :class:`~repro.scaling.faultaware.FaultAwareMixin` base layer (like
#: :data:`POLICY_KINDS`, these belong to the common decision loop, so
#: individual controller registrations do not re-declare them).
RECOVERY_KINDS = (
    SCALEIN_SUSPENDED,
    PREWARM_ISSUED,
    RECOVERY_SETTLE,
)

#: Simulation-mode switch kinds emitted by the hybrid-mode governor
#: (:class:`repro.sim.governor.ModeGovernor`): entering the fluid
#: aggregate integrator, and dropping back to per-request discrete
#: events (``reason`` names the trigger — trace derivative, fault
#: window, controller activity, or end-of-run drain; ``value`` carries
#: the number of in-flight requests handed across the switch).
MODE_KINDS = (
    "mode_fluid_entered",
    "mode_discrete_entered",
)


def declared_kinds() -> frozenset[str]:
    """The complete decision-event vocabulary.

    The controller registry validates every registered controller's
    declared decision kinds against this set, closing the loop with the
    ``deep-bus-vocabulary`` lint rule (which checks every kind reaching
    a ``DecisionEvent`` against the same module-level declarations).
    """
    return frozenset(
        POLICY_KINDS
        + ADVISORY_KINDS
        + HARDWARE_KINDS
        + SOFT_KINDS
        + FAULT_KINDS
        + RECOVERY_KINDS
        + MODE_KINDS
    )


@dataclass(frozen=True, slots=True)
class DecisionEvent:
    """One control-plane decision, executed action, or explicit no-op.

    ``kind`` is one of :data:`HARDWARE_KINDS`, :data:`SOFT_KINDS`, or
    :data:`POLICY_KINDS`. ``value`` carries the new cap/vCPU count for
    actions that set one. ``estimate`` is the SCT Q_lower (per server)
    that justified a cap change, when one did. ``reason`` is the
    human-readable justification; ``source`` names the emitting
    component (controller name, "policy", "actuator").
    """

    time: float
    kind: str
    tier: str
    value: int | None = None
    detail: str = ""
    source: str = ""
    reason: str = ""
    estimate: float | None = None

    @property
    def is_noop(self) -> bool:
        return self.kind == NOOP

    @property
    def is_soft(self) -> bool:
        return self.kind in SOFT_KINDS

    @property
    def is_hardware(self) -> bool:
        return self.kind in HARDWARE_KINDS

    @property
    def is_fault(self) -> bool:
        return self.kind in FAULT_KINDS
