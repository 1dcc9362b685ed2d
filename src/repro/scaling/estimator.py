"""The Online Optimal Concurrency Estimator (Fig. 8, steps 2-3).

Asynchronously pulls fine-grained concurrency/throughput tuples from
the Metric Warehouse, runs the SCT model per server, and aggregates a
per-tier recommendation. Estimates are cached in a history (the
"Historical Result" table of Fig. 8) so the Decision Controller can
read the latest recommendation without re-running the analysis.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.errors import EstimationError
from repro.monitoring.interval import IntervalWindow
from repro.monitoring.warehouse import MetricWarehouse
from repro.sct.drift import detect_drift
from repro.sct.model import SCTEstimate, SCTModel
from repro.sct.scatter import Scatter

__all__ = ["TierEstimate", "OptimalConcurrencyEstimator"]


@dataclass(frozen=True, slots=True)
class TierEstimate:
    """Aggregated recommendation for one tier."""

    tier: str
    time: float
    optimal: int  # per-server optimal concurrency (Q_lower)
    q_upper: int
    saturation_observed: bool
    hardware_limited: bool
    # True when at least one server's plateau runs at high utilisation
    # of its own hardware, regardless of whether the descending stage
    # was observed. Combined with admission-queue pressure this is the
    # signal that the current concurrency cap is *below* the (not yet
    # observable) optimum and should be explored upward.
    plateau_hot: bool
    per_server: dict[str, SCTEstimate]
    # True when the newest fine sample backing this estimate is older
    # than the estimator's staleness horizon — the telemetry feed has a
    # hole (dropout fault, dead agent) and the numbers describe a past
    # operating point, not the current one.
    stale: bool = False

    @property
    def actionable(self) -> bool:
        """Safe to actuate: the plateau was observed AND it is this
        tier's own hardware limit (not downstream congestion) AND the
        backing telemetry is fresh."""
        return self.saturation_observed and self.hardware_limited and not self.stale

    @property
    def n_servers(self) -> int:
        """How many servers contributed an estimate."""
        return len(self.per_server)


class OptimalConcurrencyEstimator:
    """Runs the SCT model over warehouse data for whole tiers."""

    def __init__(
        self,
        warehouse: MetricWarehouse,
        model: SCTModel | None = None,
        window: float = 60.0,
        drift_check: bool = False,
        drift_min_samples: int = 60,
        stale_after: float = 5.0,
    ) -> None:
        if window <= 0:
            raise EstimationError(f"window must be > 0, got {window!r}")
        if stale_after <= 0:
            raise EstimationError(f"stale_after must be > 0, got {stale_after!r}")
        self.warehouse = warehouse
        self.model = model or SCTModel()
        self.window = float(window)
        # Estimates whose newest backing sample is older than this are
        # flagged stale (telemetry dropout): controllers must hold their
        # last-known-good caps rather than actuate on them.
        self.stale_after = float(stale_after)
        # Optional stationarity guard: before estimating, compare the
        # two halves of each server's window (repro.sct.drift); when
        # the capacity curve shifted mid-window, the pre-shift half is
        # trimmed from the warehouse so it cannot poison this or any
        # later estimate.
        self.drift_check = bool(drift_check)
        self.drift_min_samples = int(drift_min_samples)
        self.drift_events = 0
        self._history: dict[str, list[TierEstimate]] = {}

    # ------------------------------------------------------------------
    def estimate_tier(self, tier: str) -> TierEstimate | None:
        """Estimate the per-server optimal concurrency of a tier.

        Per-server estimates are aggregated by median (instances of a
        tier are homogeneous VMs, so their curves agree up to noise).
        Returns None when no server of the tier yields an estimate —
        the controller then keeps the current allocation.
        """
        fine = self.warehouse.fine_samples_for_tier(tier, self.window)
        per_server: dict[str, SCTEstimate] = {}
        for name, window in fine.items():
            if self.drift_check and len(window) >= self.drift_min_samples:
                window = self._drop_pre_drift(name, window)
            try:
                per_server[name] = self.model.estimate(Scatter.from_window(window))
            except EstimationError:
                continue
        if not per_server:
            return None
        # Prefer servers whose estimate is actionable (saturation seen
        # at their own hardware limit); fall back to all servers so the
        # caller still gets a non-actionable estimate to inspect.
        actionable = {
            n: e
            for n, e in per_server.items()
            if e.saturation_observed and e.hardware_limited
        }
        basis = actionable or per_server
        optima = [e.optimal for e in basis.values()]
        uppers = [e.q_upper for e in basis.values()]
        newest = max(
            (float(window.t_end[-1]) for window in fine.values() if len(window)),
            default=float("-inf"),
        )
        stale = (self.warehouse.sim.now - newest) > self.stale_after
        estimate = TierEstimate(
            tier=tier,
            time=self.warehouse.sim.now,
            optimal=int(round(statistics.median(optima))),
            q_upper=int(round(statistics.median(uppers))),
            saturation_observed=bool(actionable)
            or any(e.saturation_observed for e in per_server.values()),
            hardware_limited=bool(actionable),
            plateau_hot=any(e.hardware_limited for e in per_server.values()),
            per_server=per_server,
            stale=stale,
        )
        self._history.setdefault(tier, []).append(estimate)
        return estimate

    def _drop_pre_drift(self, name: str, window: IntervalWindow) -> IntervalWindow:
        """Trim the pre-shift half of a drifted window (see drift_check)."""
        mid = len(window) // 2
        report = detect_drift(
            Scatter.from_window(window[:mid]),
            Scatter.from_window(window[mid:]),
        )
        if not report.drifted:
            return window
        self.drift_events += 1
        cutoff = float(window.t_end[mid])
        self.warehouse.trim_fine_samples(name, keep_after=cutoff)
        return window[mid:]

    def last(self, tier: str) -> TierEstimate | None:
        """Latest cached estimate for a tier (the Historical Result)."""
        history = self._history.get(tier)
        return history[-1] if history else None

    def history(self, tier: str) -> list[TierEstimate]:
        """All estimates produced for a tier, in time order."""
        return list(self._history.get(tier, []))
