"""ConScale: concurrency-aware system scaling (the paper's framework).

ConScale = the shared threshold hardware scaler **plus** fast online
soft-resource adaption:

1. when a hardware scaling action completes, immediately re-estimate
   the optimal concurrency of the app and DB tiers with the SCT model
   and re-allocate the pools;
2. additionally re-estimate every 2 s, so runtime-environment
   changes that do not coincide with scaling events (e.g. the dataset
   size drifting — the Fig. 11 scenario) are also caught.

Every tier gets one cap from the tier's median estimate: each Tomcat
the same thread count, each Tomcat's pool the same share of the DB
tier's concurrency. The only setting a run chooses is the actuation
``headroom``; the rest are the constants below.

The DB tier's concurrency is actuated indirectly: if the SCT model says
each MySQL should run at ``Q*`` and there are ``n_db`` MySQL and
``n_app`` Tomcat instances, each Tomcat's connection pool is set to
``round(Q* * n_db / n_app)``.
"""

from __future__ import annotations

from repro.control.events import STALE_HOLD
from repro.monitoring.warehouse import TELEMETRY_STALE_AFTER, MetricWarehouse
from repro.ntier.app import APP, DB
from repro.scaling.actuator import Actuator
from repro.scaling.controller import (
    BaseController,
    admission_pressured,
    cap_drifted,
    probe_up,
)
from repro.scaling.estimator import OptimalConcurrencyEstimator, TierEstimate
from repro.scaling.policy import TierPolicyConfig
from repro.sim.engine import Simulator

__all__ = ["ConScaleController"]

#: Bounds on the caps ConScale actuates: Tomcat threads, and each
#: Tomcat's DB connection pool.
_MIN_APP_THREADS = 4
_MAX_APP_THREADS = 400
_MIN_DB_CONNECTIONS = 2
_MAX_DB_CONNECTIONS = 400

#: Seconds between periodic soft-resource adaptions.
_ADAPT_INTERVAL = 2.0


class ConScaleController(BaseController):
    """The paper's concurrency-aware scaling framework."""

    name = "conscale"

    def __init__(
        self,
        sim: Simulator,
        warehouse: MetricWarehouse,
        actuator: Actuator,
        estimator: OptimalConcurrencyEstimator | None = None,
        tier_configs: dict[str, TierPolicyConfig] | None = None,
        headroom: float = 1.15,
    ) -> None:
        super().__init__(sim, warehouse, actuator, tier_configs)
        self.estimator = estimator or OptimalConcurrencyEstimator(warehouse)
        # Actuate slightly above the estimated Q_lower: the estimate is
        # noise-biased a little low (tolerance band on a rising curve),
        # and a cap exactly at the knee parks the bottleneck's CPU just
        # below the hardware scaler's threshold. The paper's own runs
        # show the same behaviour (e.g. "MySQL1 20 -> 22" in Fig. 8).
        self.headroom = float(headroom)
        self._last_adapt = -1e18

    # ------------------------------------------------------------------
    # controller hooks
    # ------------------------------------------------------------------
    def after_hardware_change(self, tier: str, kind: str) -> None:
        """Fast adaption right after hardware scaling (paper step 2)."""
        self._adapt(force=True)

    def periodic_adapt(self, now: float) -> None:
        """Continuous adaption for non-scaling environment changes."""
        if now - self._last_adapt >= _ADAPT_INTERVAL:
            self._adapt(force=False)

    # ------------------------------------------------------------------
    # the adaption step
    # ------------------------------------------------------------------
    def _adapt(self, force: bool) -> None:
        self._last_adapt = self.sim.now
        self._adapt_app(force)
        self._adapt_db(force)

    def _hold_if_stale(self, tier: str, est: TierEstimate | None) -> bool:
        """Graceful degradation under telemetry dropout.

        A stale estimate describes a past operating point; actuating on
        it (or exploring/relaxing while blind) is acting on garbage.
        Emit an auditable hold and keep the last-known-good caps until
        fresh samples arrive.
        """
        if est is None or not est.stale:
            return False
        age = self.warehouse.telemetry_age(tier)
        age_str = "never sampled" if age == float("inf") else f"{age:.1f}s old"
        self.emit(
            STALE_HOLD, tier,
            reason=f"telemetry stale ({age_str}); holding last-known-good caps",
        )
        return True

    def _adapt_app(self, force: bool) -> None:
        est = self.estimator.estimate_tier(APP)
        current = self.actuator.factory.thread_limit(APP)
        if self._hold_if_stale(APP, est):
            return
        if self._usable(est):
            target = self._clamp(
                self._with_headroom(est.optimal), _MIN_APP_THREADS, _MAX_APP_THREADS
            )
            if force or cap_drifted(current, target):
                self.actuator.set_app_threads(
                    target,
                    reason=f"SCT Q_lower={est.optimal} x headroom "
                    f"{self.headroom:.2f}",
                    estimate=float(est.optimal),
                )
            return
        if self._should_explore(APP, est):
            target = min(_MAX_APP_THREADS, probe_up(current))
            if target != current:
                self.actuator.set_app_threads(
                    target,
                    reason="probe up: plateau at cap with admission pressure",
                )
            return
        relaxed = self._maybe_relax(APP, current, self.actuator.app.soft.app_threads)
        if relaxed != current:
            self.actuator.set_app_threads(
                relaxed, reason="relax stale cap toward static default"
            )

    def _adapt_db(self, force: bool) -> None:
        est = self.estimator.estimate_tier(DB)
        current = self.actuator.db_connections
        if self._hold_if_stale(DB, est):
            return
        if self._usable(est):
            n_db = self.actuator.app.tiers[DB].size
            n_app = max(1, self.actuator.app.tiers[APP].size)
            total_db_concurrency = self._with_headroom(est.optimal) * n_db
            per_app = self._clamp(
                -(-total_db_concurrency // n_app),  # ceil division
                _MIN_DB_CONNECTIONS,
                _MAX_DB_CONNECTIONS,
            )
            if force or cap_drifted(current, per_app):
                self.actuator.set_db_connections(
                    per_app,
                    reason=f"SCT Q_lower={est.optimal} x headroom "
                    f"{self.headroom:.2f} x {n_db} db / {n_app} app",
                    estimate=float(est.optimal),
                )
            return
        if self._should_explore(DB, est):
            target = min(_MAX_DB_CONNECTIONS, probe_up(current))
            if target != current:
                self.actuator.set_db_connections(
                    target,
                    reason="probe up: plateau at cap with admission pressure",
                )
            return
        relaxed = self._maybe_relax(DB, current, self.actuator.app.soft.db_connections)
        if relaxed != current:
            self.actuator.set_db_connections(
                relaxed, reason="relax stale cap toward static default"
            )

    # ------------------------------------------------------------------
    def _usable(self, est: TierEstimate | None) -> bool:
        # Two guards against mis-actuation:
        # 1. Without observed saturation the SCT optimum is only "the
        #    largest concurrency seen so far"; applying it would cap the
        #    system below its real capacity while load is still growing.
        # 2. Without a hardware-limited plateau the curve is
        #    contaminated by downstream congestion — the tier is not
        #    the bottleneck, and the paper only adapts the bottleneck
        #    tier's soft resources.
        return est is not None and est.actionable

    def _should_explore(self, tier: str, est: TierEstimate | None) -> bool:
        """Detect "the optimum is above the current cap".

        Once a cap is applied the SCT model can never observe
        concurrency beyond it, so a cap that has become too low (e.g.
        the dataset shrank and each request got cheaper — the Fig. 11
        scenario) is invisible to plain estimation. The tell-tale
        combination is: the throughput plateau extends all the way to
        the cap (no descending stage observed), the plateau runs at
        high utilisation of the tier's own hardware, and requests are
        queueing at the admission point. Probing the cap upward is
        self-correcting — as soon as the descending stage becomes
        visible, the estimate turns actionable and clamps it back.
        """
        if est is None or est.saturation_observed or not est.plateau_hot:
            return False
        return admission_pressured(self.actuator.app, tier)

    def _maybe_relax(self, tier: str, current: int, static_default: int) -> int:
        """Gradually widen a previously applied cap when the tier has
        genuinely stopped being the bottleneck, so a stale tight cap
        cannot throttle the system indefinitely.

        Relaxation requires the tier's recent CPU to be *cool* — a hot
        tier whose estimate is merely unavailable this round keeps its
        cap (loosening the bottleneck tier's concurrency under load is
        exactly the failure mode ConScale exists to prevent). Grows
        50 % per adaption round toward the static allocation, the
        operator-chosen safe upper bound.
        """
        if current >= static_default:
            return current
        age = self.warehouse.telemetry_age(tier)
        if age != float("inf") and age > TELEMETRY_STALE_AFTER:
            # Telemetry dropout: the cool-CPU reading below would be
            # computed over a window with no fresh samples (or decay to
            # 0.0 outright) — never widen a cap while blind.
            return current
        if self.warehouse.tier_cpu(tier, window=10.0) >= 0.5:
            return current
        return min(static_default, max(current + 1, int(current * 1.5)))

    def _with_headroom(self, optimal: int) -> int:
        """Estimated Q_lower plus the actuation headroom, rounded up."""
        return max(1, int(-(-optimal * self.headroom // 1)))

    @staticmethod
    def _clamp(value: int, lo: int, hi: int) -> int:
        return max(lo, min(hi, value))
