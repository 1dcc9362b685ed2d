"""MPC-hybrid autoscaling — the OptScaler-style baseline.

OptScaler (Zou et al., VLDB 2024) combines a *proactive* module that
forecasts near-future workload with a *reactive* model-predictive
module that corrects resource decisions against a performance model in
a receding-horizon loop. This controller reproduces that shape on the
repo's plumbing:

* the proactive half is inherited from
  :class:`~repro.scaling.predictive.PredictiveAutoScaling` — linear
  CPU-trend extrapolation arms hardware scale-outs one provisioning
  lead-time ahead;
* the reactive half corrects the *soft-resource caps* every 2 s: from
  warehouse telemetry it estimates each tier's per-request service
  demand (utilisation law), forecasts the tier's near-future
  throughput need, solves the calibrated load-dependent MVA model
  (:mod:`repro.qnet`) for the smallest per-server concurrency that
  sustains the forecast demand, and actuates it through the same pool
  caps ConScale uses.

Unlike ConScale it never *measures* the throughput/concurrency curve —
it trusts the analytical model, so its corrections are only as good as
the utilisation-law demand estimate. Past saturation the busy fraction
pegs at 1.0 while useful throughput thrashes away, so the estimated
demand inflates and the model conservatively under-caps — the
interesting failure mode to compare against SCT-based estimation.

Every reasoning step is auditable on the decision trace: a ``forecast``
event per tier per correction round, and an ``mpc_correction`` event
whenever the model picks a new cap. A run sets none of its settings;
they are the constants below and the predictive half's.
"""

from __future__ import annotations

import numpy as np

from repro.control.events import FORECAST, MPC_CORRECTION, STALE_HOLD
from repro.monitoring.warehouse import (
    TELEMETRY_STALE_AFTER,
    MetricWarehouse,
    VmSample,
)
from repro.ntier.app import APP, DB
from repro.qnet.mva import MvaResult, solve_mva
from repro.qnet.network import station_from_capacity
from repro.scaling.actuator import Actuator
from repro.scaling.controller import admission_pressured, cap_drifted, probe_up
from repro.scaling.policy import TierPolicyConfig
from repro.scaling.predictive import TREND_WINDOW, PredictiveAutoScaling
from repro.sim.engine import Simulator

__all__ = ["MPCHybridController"]

#: Cap on memoised MVA solutions before the cache is dropped wholesale.
_MVA_CACHE_MAX = 64

#: Bounds on the per-server cap a correction actuates.
_MIN_CAP = 2
_MAX_CAP = 400

#: Seconds between receding-horizon cap corrections, and so the horizon
#: the throughput forecast looks ahead.
_CORRECTION_INTERVAL = 2.0

#: Largest per-server concurrency the MVA model solves for.
_Q_MAX = 200


class MPCHybridController(PredictiveAutoScaling):
    """Proactive forecast + receding-horizon MVA cap correction."""

    name = "mpc"

    def __init__(
        self,
        sim: Simulator,
        warehouse: MetricWarehouse,
        actuator: Actuator,
        tier_configs: dict[str, TierPolicyConfig] | None = None,
    ) -> None:
        super().__init__(sim, warehouse, actuator, tier_configs)
        self._last_correction = -1e18
        # Memoised MVA solutions keyed by (tier, capacity curve, demand
        # rounded to 3 significant figures). The rounded demand is also
        # what gets solved, so a cache hit returns exactly what a fresh
        # solve would — determinism does not depend on hit/miss history.
        self._mva_cache: dict[tuple, MvaResult] = {}

    # ------------------------------------------------------------------
    # controller hooks
    # ------------------------------------------------------------------
    def after_hardware_change(self, tier: str, kind: str) -> None:
        """Re-correct immediately once the fleet changes shape."""
        self._mva_cache.clear()
        self._correct()

    def periodic_adapt(self, now: float) -> None:
        """Proactive hardware forecasting, then the MPC correction."""
        super().periodic_adapt(now)
        if now - self._last_correction >= _CORRECTION_INTERVAL:
            self._correct()

    # ------------------------------------------------------------------
    # the receding-horizon correction step
    # ------------------------------------------------------------------
    def _correct(self) -> None:
        self._last_correction = self.sim.now
        for tier in (APP, DB):
            self._correct_tier(tier)

    def _correct_tier(self, tier: str) -> None:
        age = self.warehouse.telemetry_age(tier)
        if age == float("inf"):
            return  # never sampled yet; nothing to hold or correct
        if age > TELEMETRY_STALE_AFTER:
            self.emit(
                STALE_HOLD, tier,
                reason=f"telemetry stale ({age:.1f}s old); "
                "holding last-known-good caps",
            )
            return
        samples = self.warehouse.samples(TREND_WINDOW, tier)
        demand = self._estimated_demand(tier, samples)
        if demand is None:
            return
        forecast = self._forecast_throughput(tier, samples)
        if forecast is None:
            return
        n_servers = max(1, self.actuator.app.tiers[tier].size)
        required = forecast / n_servers
        q_star, model_x = self._solve_cap(tier, demand, required)
        q_star = self._pressure_bump(tier, q_star)
        q_star = max(_MIN_CAP, min(_MAX_CAP, q_star))
        if tier == APP:
            current = self.actuator.factory.thread_limit(APP)
            if cap_drifted(current, q_star):
                self.emit(MPC_CORRECTION, tier, value=q_star, estimate=model_x)
                self.actuator.set_app_threads(
                    q_star,
                    reason=f"MVA cap for forecast X={forecast:.1f}/s "
                    f"(D={demand:.4f}s, {n_servers} server(s))",
                    estimate=model_x,
                )
        else:
            n_app = max(1, self.actuator.app.tiers[APP].size)
            per_app = max(1, -(-q_star * n_servers // n_app))  # ceil
            current = self.actuator.db_connections
            if cap_drifted(current, per_app):
                self.emit(MPC_CORRECTION, tier, value=q_star, estimate=model_x)
                self.actuator.set_db_connections(
                    per_app,
                    reason=f"MVA cap for forecast X={forecast:.1f}/s "
                    f"(D={demand:.4f}s, {n_servers} db / {n_app} app)",
                    estimate=model_x,
                )

    # ------------------------------------------------------------------
    # model inputs from telemetry
    # ------------------------------------------------------------------
    def _estimated_demand(
        self, tier: str, samples: list[VmSample]
    ) -> float | None:
        """Per-request service demand via the utilisation law.

        Warehouse CPU is the busy fraction of the server's primary
        resource, so ``sum(cpu)/sum(throughput)`` measures
        ``demand * fraction / units`` of that resource; multiplying by
        its saturation concurrency (``units/fraction``) recovers the
        demand. Exact while the server is in its ascending region;
        past saturation the pegged busy fraction inflates the estimate
        by the thrash factor, which errs toward tighter caps.
        """
        total_cpu = sum(s.cpu for s in samples)
        total_tp = sum(s.throughput for s in samples)
        if total_tp <= 0.0 or total_cpu <= 0.0:
            return None
        capacity = self.actuator.factory.capacity(tier)
        primary = capacity.resources[0]
        return (total_cpu / total_tp) * primary.saturation_concurrency

    def _forecast_throughput(
        self, tier: str, samples: list[VmSample]
    ) -> float | None:
        """Tier-total throughput forecast one correction horizon ahead.

        The per-server samples of each warehouse tick are summed into a
        tier-total series first; a linear trend over the window is then
        extrapolated one correction interval forward.
        """
        by_tick: dict[float, float] = {}
        for s in samples:
            by_tick[s.t_end] = by_tick.get(s.t_end, 0.0) + s.throughput
        if len(by_tick) < 3:
            return None
        ticks = sorted(by_tick)
        t = np.array(ticks)
        x = np.array([by_tick[tick] for tick in ticks])
        slope, intercept = np.polyfit(t - t[-1], x, 1)
        forecast = float(max(0.0, intercept + slope * _CORRECTION_INTERVAL))
        self.emit(
            FORECAST, tier, estimate=forecast,
            reason=f"linear trend over {len(ticks)} tick(s): "
            f"{x[-1]:.1f} -> {forecast:.1f}/s in {_CORRECTION_INTERVAL:.0f}s",
        )
        return forecast

    # ------------------------------------------------------------------
    # the MVA solve
    # ------------------------------------------------------------------
    def _solve_cap(
        self, tier: str, demand: float, required: float
    ) -> tuple[int, float]:
        """Smallest per-server concurrency sustaining the forecast.

        Targets the forecast per-server throughput plus a 10 % margin,
        capped at 95 % of the model's peak — when demand outgrows a
        single server, chasing the asymptote with ever-larger caps only
        buys contention, and the hardware scaler (the proactive half)
        is the right tool instead.
        """
        result = self._solve_mva(tier, demand)
        peak_idx = int(np.argmax(result.throughput))
        peak_x = float(result.throughput[peak_idx])
        target = min(required * 1.1, 0.95 * peak_x)
        reachable = np.nonzero(result.throughput >= target)[0]
        if reachable.size:
            idx = int(reachable[0])
        else:
            idx = peak_idx
        return int(result.populations[idx]), float(result.throughput[idx])

    def _solve_mva(self, tier: str, demand: float) -> MvaResult:
        # Round the demand to 3 significant figures *before* keying and
        # solving: telemetry jitter then reuses one solution instead of
        # re-solving per decision tick.
        rounded = float(f"{demand:.2e}")
        capacity = self.actuator.factory.capacity(tier)
        key = (tier, capacity.canonical_key(), rounded)
        cached = self._mva_cache.get(key)
        if cached is not None:
            return cached
        if len(self._mva_cache) >= _MVA_CACHE_MAX:
            self._mva_cache.clear()
        station = station_from_capacity(tier, capacity, rounded)
        result = solve_mva([station], _Q_MAX)
        self._mva_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def _pressure_bump(self, tier: str, q_star: int) -> int:
        """Reactive correction for the model's observability trap.

        A tight cap hides demand growth from throughput telemetry (the
        capped system serves what the cap allows, so the forecast never
        rises). Requests queueing at the admission point are the
        observable symptom; bump the model's answer upward until the
        pressure drains.
        """
        if admission_pressured(self.actuator.app, tier):
            return probe_up(q_star)
        return q_star
