"""Recovery-aware control: fault-event feedback into the decision loop.

Fault-blind controllers treat an incident as ordinary load noise: they
happily scale *in* while a crash replacement is still provisioning,
re-trip thresholds off post-recovery transients, and sit out a healed
provisioning window on exponential backoff. :class:`FaultAwareMixin`
closes that loop: it reacts to the fault lifecycle events already
flowing over the control bus (``fault_injected`` / ``fault_recovered``
/ ``server_ejected``, and ``scale_out_ready`` to end a crash holdoff),
which the host controller's one bus subscription hands it:

* **scale-in suspension** — while a crash replacement is pending or a
  provisioning-fault episode is open on a tier, scale-in decisions are
  vetoed (``scalein_suspended`` events record both the arming of the
  suspension and each swallowed decision);
* **pre-warm** — a ``server_ejected`` crash triggers an immediate
  replacement launch instead of waiting for thresholds to re-trip on
  the survivors. If a provisioning-fault episode is already open on
  the tier the launch is *deferred* — the injector dooms launches at
  start time, so firing into a broken control plane would burn a full
  prep period on a VM that can never come up — and issued the moment
  the episode heals, alongside expediting any pending backoff retries
  to *now* (both emit ``prewarm_issued``);
* **settle window** — after any episode recovers, destructive actions
  stay suspended for :data:`SETTLE_WINDOW` seconds so controllers do
  not act on telemetry straddling the regime change
  (``recovery_settle``).

The mixin is inert until :meth:`enable_fault_awareness` is called; the
controller registry enables it for every framework it builds (the
``fault_aware`` param, on by default, is the ablation switch the
resilience suite scores head-to-head).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.control.events import (
    PREWARM_ISSUED,
    RECOVERY_SETTLE,
    SCALEIN_SUSPENDED,
    DecisionEvent,
)
from repro.faults.plan import ALL_TIERS, episode_class

if TYPE_CHECKING:
    from repro.scaling.actuator import Actuator
    from repro.scaling.policy import ThresholdPolicy
    from repro.sim.engine import Simulator

__all__ = ["FaultAwareMixin", "SETTLE_WINDOW", "CRASH_HOLDOFF_MAX"]

#: Seconds after an episode recovers during which scale-in stays vetoed.
SETTLE_WINDOW = 10.0
#: Upper bound on a crash holdoff: if no replacement becomes ready
#: within this window (launch wedged behind a long fault), the veto
#: lapses rather than pinning the tier's footprint forever.
CRASH_HOLDOFF_MAX = 60.0


class FaultAwareMixin:
    """Fault-event feedback for :class:`~repro.scaling.controller.BaseController`.

    Mixed into the controller base class but disabled by default, so
    directly-constructed controllers behave exactly as before; the
    registry's ``build`` path switches it on (see module docstring).
    The mixin does not subscribe to the bus itself: the host's bus
    handler passes every event to :meth:`_on_fault_event` while fault
    awareness is on. Relies on the host class providing ``sim``,
    ``actuator``, ``policy`` and ``emit``.
    """

    sim: Simulator
    actuator: Actuator
    policy: ThresholdPolicy

    if TYPE_CHECKING:
        # Provided by the host controller class.
        def emit(
            self,
            kind: str,
            tier: str,
            value: int | None = None,
            detail: str = "",
            reason: str = "",
            estimate: float | None = None,
        ) -> None: ...

    _fault_aware = False

    def enable_fault_awareness(self) -> None:
        """Start reacting to fault lifecycle events."""
        if self._fault_aware:
            return
        self._fault_aware = True
        # Open provisioning-fault episodes, keyed by the event tier
        # (the "*" wildcard stays a key of its own and blocks every
        # tier); crash holdoffs and settle deadlines are per tier.
        self._open_prov: dict[str, int] = {}
        self._crash_holdoff: dict[str, float] = {}
        self._settle_until: dict[str, float] = {}
        # Replacements owed to tiers whose ejection happened while a
        # provisioning episode was open (launch deferred until heal).
        self._pending_prewarm: dict[str, list[str]] = {}

    @property
    def fault_aware(self) -> bool:
        """True once :meth:`enable_fault_awareness` has run."""
        return self._fault_aware

    # ------------------------------------------------------------------
    # decision-loop query
    # ------------------------------------------------------------------
    def scalein_blocked(self, tier: str, now: float) -> str | None:
        """Why scale-in is currently suspended on ``tier`` (None = act)."""
        if not self._fault_aware:
            return None
        if self._prov_open(tier):
            return "provisioning-fault episode open"
        armed = self._crash_holdoff.get(tier)
        if armed is not None:
            if now - armed <= CRASH_HOLDOFF_MAX:
                return "crash replacement still pending"
            del self._crash_holdoff[tier]
        settle = self._settle_until.get(tier)
        if settle is not None and now < settle:
            return f"post-recovery settle window until t={settle:g}"
        return None

    # ------------------------------------------------------------------
    # bus reactions
    # ------------------------------------------------------------------
    def _on_fault_event(self, event: DecisionEvent) -> None:
        if event.kind == "server_ejected":
            self._on_ejected(event)
        elif event.kind == "fault_injected":
            self._on_injected(event)
        elif event.kind == "fault_recovered":
            self._on_recovered(event)
        elif event.kind == "scale_out_ready":
            self._on_capacity_ready(event)

    def _prov_open(self, tier: str) -> bool:
        """Whether a provisioning episode is open on ``tier`` (or "*")."""
        return (
            self._open_prov.get(tier, 0) > 0
            or self._open_prov.get(ALL_TIERS, 0) > 0
        )

    def _controlled(self, tier: str) -> tuple[str, ...]:
        """Controlled tiers an event tier maps to ("*" fans out)."""
        if tier == ALL_TIERS:
            return tuple(self.policy.configs)
        return (tier,) if tier in self.policy.configs else ()

    def _on_injected(self, event: DecisionEvent) -> None:
        if episode_class(event.reason) != "prov":
            return
        self._open_prov[event.tier] = self._open_prov.get(event.tier, 0) + 1
        for tier in self._controlled(event.tier):
            self.emit(
                SCALEIN_SUSPENDED, tier, detail="armed", reason=event.reason,
            )

    def _on_ejected(self, event: DecisionEvent) -> None:
        tier = event.tier
        self._crash_holdoff[tier] = self.sim.now
        if tier in self.policy.configs:
            self.emit(
                SCALEIN_SUSPENDED, tier, detail="armed",
                reason=f"replacement pending after {event.detail} ejected",
            )
        # Pre-warm: launch the replacement immediately instead of
        # waiting for thresholds to re-trip on the survivors — unless
        # a provisioning episode is open on the tier, in which case
        # the injector would doom the launch at start time and it
        # would burn a full prep period before failing. Defer those
        # until the episode heals.
        if self._prov_open(tier):
            self._pending_prewarm.setdefault(tier, []).append(event.detail)
            return
        self._launch_prewarm(
            tier, event.detail, reason="replacement launched on ejection"
        )

    def _launch_prewarm(self, tier: str, detail: str, reason: str) -> None:
        """Launch a replacement VM now, unless one is already in flight.

        The in-flight check keeps the crash of a draining server from
        double-provisioning.
        """
        if self.actuator.action_in_flight(tier):
            return
        self.actuator.scale_out(
            tier, reason=f"prewarm replacement for {detail}"
        )
        self.emit(PREWARM_ISSUED, tier, detail=detail, reason=reason)

    def _on_recovered(self, event: DecisionEvent) -> None:
        cls = episode_class(event.reason)
        if cls == "prov":
            left = self._open_prov.get(event.tier, 0) - 1
            if left > 0:
                self._open_prov[event.tier] = left
                return
            self._open_prov.pop(event.tier, None)
            targets = (
                tuple(self.actuator.app.tiers)
                if event.tier == ALL_TIERS
                else (event.tier,)
            )
            for tier in targets:
                moved = self.actuator.expedite_retries(tier)
                if moved:
                    self.emit(
                        PREWARM_ISSUED, tier, value=moved,
                        detail="expedited-retry",
                        reason="provisioning healed; backoff cut short",
                    )
                if self._prov_open(tier):
                    continue  # another episode still dooms launches
                for detail in self._pending_prewarm.pop(tier, []):
                    self._launch_prewarm(
                        tier, detail,
                        reason="deferred until provisioning healed",
                    )
            for tier in self._controlled(event.tier):
                self._open_settle(tier, event.reason)
        elif cls in ("slow", "dropout"):
            for tier in self._controlled(event.tier):
                self._open_settle(tier, event.reason)

    def _on_capacity_ready(self, event: DecisionEvent) -> None:
        if self._crash_holdoff.pop(event.tier, None) is not None:
            self._open_settle(
                event.tier, f"replacement {event.detail} ready after crash"
            )

    def _open_settle(self, tier: str, reason: str) -> None:
        until = self.sim.now + SETTLE_WINDOW
        if until > self._settle_until.get(tier, -1.0):
            self._settle_until[tier] = until
            self.emit(
                RECOVERY_SETTLE, tier, value=int(SETTLE_WINDOW),
                reason=reason,
            )
