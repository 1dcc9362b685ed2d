"""Proactive (predictive) hardware scaling — the related-work baseline.

The paper's related work ([6] Gandhi et al., [7] Han et al.) scales
*ahead* of the load by forecasting near-future demand. This controller
implements the standard lightweight version: fit a linear trend to each
tier's recent CPU utilisation and scale out as soon as the utilisation
*projected one provisioning lead-time ahead* crosses the threshold —
instead of waiting for the current utilisation to cross it.

Like EC2-AutoScaling it is hardware-only (no soft-resource adaption),
so it inherits the concurrency-collapse problem the paper demonstrates;
it simply pays for VMs earlier. The paper's position — that prediction
cannot remove temporary overloading for bursty n-tier workloads, so
fast *reactive* concurrency adaption is needed — is exactly what the
``bench_predictive_baseline`` comparison probes. A run sets none of its
settings; they are the constants below.
"""

from __future__ import annotations

import numpy as np

from repro.control.events import THRESHOLD_TRIP
from repro.monitoring.warehouse import MetricWarehouse
from repro.scaling.actuator import Actuator
from repro.scaling.controller import DECISION_TICK, BaseController
from repro.scaling.policy import TierPolicyConfig
from repro.sim.engine import Simulator

__all__ = ["PredictiveAutoScaling", "TREND_WINDOW"]

#: Seconds of telemetry behind a linear trend (the CPU forecast here,
#: and MPC's throughput forecast and demand estimate).
TREND_WINDOW = 30.0

#: Minimum current tier CPU before a forecast may act: a steep trend
#: from 5 % to 10 % CPU is noise, not a burst.
_ARM_THRESHOLD = 0.45


class PredictiveAutoScaling(BaseController):
    """Trend-extrapolating hardware-only autoscaler."""

    name = "predictive"

    def __init__(
        self,
        sim: Simulator,
        warehouse: MetricWarehouse,
        actuator: Actuator,
        tier_configs: dict[str, TierPolicyConfig] | None = None,
    ) -> None:
        super().__init__(sim, warehouse, actuator, tier_configs)
        # Forecast horizon: the VM preparation period plus one tick.
        self.lead_time = actuator.hypervisor.prep_period + DECISION_TICK

    def predicted_cpu(self, tier: str) -> float:
        """Linear-trend forecast of the tier's CPU one lead-time ahead.

        Returns 0.0 while fewer than three samples exist.
        """
        samples = self.warehouse.samples(TREND_WINDOW, tier)
        if len(samples) < 3:
            return 0.0
        t = np.array([s.t_end for s in samples])
        u = np.array([s.cpu for s in samples])
        finite = np.isfinite(t) & np.isfinite(u)
        t, u = t[finite], u[finite]
        # A telemetry blackout can leave every sample in the window on
        # a single collection tick (one per server): no time spread, a
        # singular fit. A trend needs at least two distinct instants.
        if len(t) < 3 or np.ptp(t) <= 0.0:
            return 0.0
        slope, intercept = np.polyfit(t - t[-1], u, 1)
        return float(max(0.0, intercept + slope * self.lead_time))

    def periodic_adapt(self, now: float) -> None:
        """Proactive scale-outs on top of the reactive policy."""
        for tier, config in self.policy.configs.items():
            if not self.policy.can_scale_out(tier):
                continue
            current = self.warehouse.tier_cpu(tier, config.out_window)
            if current < _ARM_THRESHOLD:
                continue
            predicted = self.predicted_cpu(tier)
            if predicted > config.high_threshold:
                reason = (
                    f"predicted cpu {predicted:.2f} in {self.lead_time:.0f}s "
                    f"> {config.high_threshold:.2f} (current {current:.2f})"
                )
                self.emit(THRESHOLD_TRIP, tier, detail="out", reason=reason)
                self.actuator.scale_out(tier, reason=reason)
                self.policy.note_action(tier, "out")
