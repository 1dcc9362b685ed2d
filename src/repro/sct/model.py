"""The SCT estimator: rational concurrency range and optimal setting.

Implements the Estimation Phase of Fig. 4: given a scatter of
``{Q, TP, RT}`` observations grouped into concurrency bands, locate the
throughput plateau and report

* ``q_lower`` — minimum concurrency sustaining maximum throughput: the
  **optimal soft-resource allocation** (lowest response time within the
  plateau, per the Utilization Law);
* ``q_upper`` — maximum concurrency before multithreading overhead
  pulls throughput off the plateau.

A concurrency level is *on the plateau* when its mean throughput is
within ``tolerance`` of the peak **or** statistically indistinguishable
from the peak (Welch p ≥ :data:`ALPHA`). The range is grown outward from
the peak band and stops at the first band that is confidently off the
plateau, so isolated noisy bands inside the plateau do not split it.
Only the bands that walk consults are tested.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EstimationError
from repro.sct.grouping import bucketize
from repro.sct.intervention import welch_moments_pvalue
from repro.sct.scatter import Scatter

__all__ = ["SCTEstimate", "SCTModel"]

#: Significance level of the Welch test; bands whose throughput cannot
#: be distinguished from the peak at this level stay in the plateau even
#: if their mean dips below the tolerance band.
ALPHA = 0.05
#: Minimum distinct concurrency levels needed to estimate at all.
MIN_BUCKETS = 3
#: Minimum mean busy utilisation of the critical resource across the
#: plateau for the estimate to be flagged ``hardware_limited``.
UTIL_THRESHOLD = 0.7


@dataclass(frozen=True, slots=True)
class SCTEstimate:
    """Result of one SCT estimation."""

    q_lower: int
    q_upper: int
    tp_max: float
    optimal: int
    # Whether the ascending stage was observed below q_lower (if not,
    # the true optimum may be below the smallest observed concurrency
    # and q_lower is only an upper bound on it).
    ascending_observed: bool
    # Whether the plateau/descending stage was observed above q_upper
    # (if not, the server never saturated in this window and the true
    # optimum may be above q_upper).
    saturation_observed: bool
    # Mean busy utilisation of the server's critical resource across
    # the plateau bands, and whether it is high enough that the
    # plateau is the server's *own* hardware limit (as opposed to a
    # stall on a congested downstream tier — cross-tier contamination).
    plateau_util: float
    hardware_limited: bool
    # When the model was configured with an SLA latency threshold
    # (Fig. 6b's dashed line): whether the recommended setting keeps the
    # server-level response time under it. False means no concurrency
    # setting can satisfy the SLA — hardware must scale.
    sla_met: bool
    n_tuples: int

    @property
    def confident(self) -> bool:
        """True when both curve stages needed to pin the optimum were seen."""
        return self.ascending_observed and self.saturation_observed

    def describe(self) -> str:
        """One-line human-readable summary."""
        flags = []
        if not self.ascending_observed:
            flags.append("no-ascending-evidence")
        if not self.saturation_observed:
            flags.append("unsaturated")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"rational range [{self.q_lower}, {self.q_upper}], "
            f"TPmax={self.tp_max:.1f}/s, optimal={self.optimal}{suffix}"
        )


class SCTModel:
    """Online estimator of the rational concurrency range of a server.

    Parameters
    ----------
    tolerance:
        Relative throughput slack defining the plateau (``0.05`` means
        bands within 95 % of the peak are plateau members).
    min_samples:
        Minimum observations per concurrency band.
    bucket_width:
        Concurrency band width for grouping (None = adaptive; see
        :func:`repro.sct.grouping.bucketize`).
    """

    def __init__(
        self,
        tolerance: float = 0.05,
        min_samples: int = 4,
        bucket_width: int | None = None,
        latency_threshold: float | None = None,
    ) -> None:
        if not 0.0 < tolerance < 1.0:
            raise EstimationError(f"tolerance must be in (0, 1), got {tolerance!r}")
        if min_samples < 1:
            raise EstimationError(f"min_samples must be >= 1, got {min_samples!r}")
        if latency_threshold is not None and latency_threshold <= 0.0:
            raise EstimationError(
                f"latency_threshold must be > 0, got {latency_threshold!r}"
            )
        self.tolerance = float(tolerance)
        self.min_samples = int(min_samples)
        self.bucket_width = bucket_width
        # The paper's Fig. 6(b) draws an SLA line on the RT-vs-Q scatter:
        # the optimal setting is Q_lower *and* must keep the server-level
        # response time under the threshold. When the whole plateau
        # violates the SLA, Q_lower is still reported (hardware must
        # scale instead — no concurrency setting can fix an SLA the
        # plateau itself breaks).
        self.latency_threshold = latency_threshold

    # ------------------------------------------------------------------
    def estimate(self, scatter: Scatter) -> SCTEstimate:
        """Estimate the rational concurrency range from a scatter.

        Raises :class:`EstimationError` when the window does not contain
        enough distinct concurrency levels — the caller (the ConScale
        estimator loop) treats that as "keep the current setting".
        """
        bands = bucketize(scatter, self.min_samples, self.bucket_width)
        if len(bands) < MIN_BUCKETS:
            raise EstimationError(
                f"need >= {MIN_BUCKETS} concurrency levels with >= "
                f"{self.min_samples} samples, got {len(bands)}"
            )
        mean_tp = bands.mean_tp
        peak = max(range(len(bands)), key=mean_tp.__getitem__)
        tp_max = mean_tp[peak]
        if tp_max <= 0.0:
            raise EstimationError("window contains no completed requests")
        peak_moments = bands.tp_moments(peak)

        def on_plateau(i: int) -> bool:
            # Primary criterion: within the tolerance band of the peak.
            # The Welch test may *rescue* a borderline band whose dip
            # is statistically indistinguishable from the peak, but only
            # within a bounded band (3x tolerance): with small per-
            # band samples the test has low power, and an unbounded
            # "cannot reject" rule would stretch the plateau over
            # arbitrarily bad bands.
            mean = mean_tp[i]
            if mean >= (1.0 - self.tolerance) * tp_max:
                return True
            return (
                mean >= (1.0 - 3.0 * self.tolerance) * tp_max
                and welch_moments_pvalue(bands.tp_moments(i), peak_moments)
                >= ALPHA
            )

        lo_idx = peak
        while lo_idx > 0 and on_plateau(lo_idx - 1):
            lo_idx -= 1
        hi_idx = peak
        while hi_idx < len(bands) - 1 and on_plateau(hi_idx + 1):
            hi_idx += 1

        q_lower = bands.q[lo_idx]
        q_upper = bands.q[hi_idx]
        ascending_observed = lo_idx > 0
        # Saturation requires positive evidence that throughput stops
        # growing: at least one observed concurrency level ABOVE the
        # plateau whose throughput fell off it. A window in which the
        # plateau extends to the largest concurrency seen is still in
        # the ascending stage as far as we can tell, and its "optimum"
        # is only a lower-bound artefact of limited load.
        saturation_observed = hi_idx < len(bands) - 1
        plateau_util = float(
            sum(bands.mean_util(i) for i in range(lo_idx, hi_idx + 1))
            / (hi_idx - lo_idx + 1)
        )
        optimal = q_lower
        sla_met = True
        if self.latency_threshold is not None:
            # Within the rational range, pick the largest concurrency
            # still meeting the SLA; RT grows with Q inside the range,
            # so Q_lower is the best candidate and anything above it is
            # only acceptable while under the line. If even Q_lower
            # breaks the SLA, report it with sla_met=False.
            rt_lower = bands.mean_rt(lo_idx)
            sla_met = not (rt_lower > self.latency_threshold)
        return SCTEstimate(
            q_lower=q_lower,
            q_upper=q_upper,
            tp_max=tp_max,
            optimal=optimal,
            ascending_observed=ascending_observed,
            saturation_observed=saturation_observed,
            plateau_util=plateau_util,
            hardware_limited=plateau_util >= UTIL_THRESHOLD,
            sla_met=sla_met,
            n_tuples=len(scatter),
        )
