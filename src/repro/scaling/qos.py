"""QoS-aware robust autoscaling — the RobustScaler-style baseline.

RobustScaler (Qian et al., 2022) frames autoscaling as optimisation
under a QoS *chance constraint*: keep the probability of violating the
latency objective below a tolerance ``epsilon``. This controller
implements the reactive core of that idea on the repo's plumbing: over
a sliding 20 s telemetry window it measures the completion-weighted
fraction of requests whose response time exceeded the SLO, and scales
the offending tier's hardware once the constraint

    P(RT > SLO) <= epsilon

has been violated for 3 consecutive decision ticks (the hysteresis
that keeps a single noisy interval from buying a VM). ``slo_ms`` and
``epsilon`` define the constraint, so a run may set them; the window
and the streak are constants.

Like EC2-AutoScaling and the predictive baseline it is hardware-only —
no soft-resource adaption — so it shares their concurrency-collapse
exposure; it simply triggers on the symptom the operator actually cares
about (tail latency) instead of a CPU proxy. Every constraint check
that fails is published as a ``qos_constraint`` decision event carrying
the measured violation probability, making the chance-constraint
machinery as auditable as the threshold policy it rides on.

The SLO is configured in *base-scale milliseconds*: scenario configs
scale all service demands by ``rt_scale``, and the controller scales
its objective the same way, so one ``slo_ms`` value means the same
thing across load scales.
"""

from __future__ import annotations

import numpy as np

from repro.control.events import QOS_CONSTRAINT
from repro.monitoring.warehouse import MetricWarehouse
from repro.scaling.actuator import Actuator
from repro.scaling.controller import BaseController
from repro.scaling.policy import TierPolicyConfig
from repro.sim.engine import Simulator

__all__ = ["QoSRobustController"]

#: Seconds of fine-grained samples behind each constraint check.
_WINDOW = 20.0

#: Consecutive breach ticks required before scaling.
_SUSTAIN = 3

#: Fewest completions in the window that count as evidence: a violation
#: probability computed over a handful of completions is noise, not a
#: constraint check.
_MIN_COMPLETIONS = 20


class QoSRobustController(BaseController):
    """Tail-latency chance-constraint scaling with hysteresis."""

    name = "qos"

    def __init__(
        self,
        sim: Simulator,
        warehouse: MetricWarehouse,
        actuator: Actuator,
        tier_configs: dict[str, TierPolicyConfig] | None = None,
        slo_ms: float = 250.0,
        epsilon: float = 0.05,
        rt_scale: float = 1.0,
    ) -> None:
        super().__init__(sim, warehouse, actuator, tier_configs)
        self.slo_ms = float(slo_ms)
        self.epsilon = float(epsilon)
        self.rt_scale = float(rt_scale)
        self._streaks: dict[str, int] = {}

    @property
    def slo(self) -> float:
        """The latency objective in scaled simulation seconds."""
        return (self.slo_ms / 1000.0) * self.rt_scale

    # ------------------------------------------------------------------
    def violation_probability(self, tier: str) -> float | None:
        """Completion-weighted P(RT > SLO) over the telemetry window.

        Returns None when the window holds too few completions to be
        evidence either way (intervals with NaN response times — no
        completions — carry zero weight by construction).
        """
        slo = self.slo
        total = 0
        breached = 0
        fine = self.warehouse.fine_samples_for_tier(tier, _WINDOW)
        for _name, window in sorted(fine.items()):
            rt = window.response_time
            completed = (window.completions > 0) & ~np.isnan(rt)
            counts = window.completions.astype(np.int64)
            total += int(counts[completed].sum())
            breached += int(counts[completed & (rt > slo)].sum())
        if total < _MIN_COMPLETIONS:
            return None
        return breached / total

    # ------------------------------------------------------------------
    def periodic_adapt(self, now: float) -> None:
        """Check the chance constraint per tier; scale on sustained breach."""
        for tier, config in self.policy.configs.items():
            prob = self.violation_probability(tier)
            if prob is None:
                # No evidence this tick: hold the streak rather than
                # resetting it — a telemetry gap is not compliance.
                continue
            if prob <= self.epsilon:
                self._streaks[tier] = 0
                continue
            streak = self._streaks.get(tier, 0) + 1
            self._streaks[tier] = streak
            reason = (
                f"P(RT>{self.slo_ms:.0f}ms)={prob:.3f} > "
                f"eps={self.epsilon:.3f} ({streak}/{_SUSTAIN} tick(s))"
            )
            self.emit(
                QOS_CONSTRAINT, tier, value=streak, estimate=prob,
                reason=reason,
            )
            if streak < _SUSTAIN or not self.policy.can_scale_out(tier):
                continue
            # Vertical-first, mirroring the shared threshold loop.
            scaled_up = config.prefer_vertical and self.actuator.scale_up(
                tier, config.vertical_factor, config.max_vcpus
            )
            if not scaled_up:
                self.actuator.scale_out(tier, reason=reason)
            self.policy.note_action(tier, "out")
            self._streaks[tier] = 0
