"""Online capacity-curve drift detection.

The SCT model assumes the server's capacity curve is stationary within
its collection window. That breaks when the environment changes
mid-window — the paper's own Section III-C factors (vertical scaling,
dataset drift, workload-mode change) all *move* the curve, and scatter
collected before the change poisons the estimate afterwards (the
actuator already hard-resets monitoring history on the changes it
causes itself, e.g. a vertical scale-up; dataset drift arrives
unannounced).

:func:`detect_drift` compares the recent half of a window against the
older half *bucket by bucket*: for every concurrency band present in
both halves, a two-sided Welch test asks whether mean throughput at
the same concurrency changed. If a qualified majority of shared bands
shifted in the same direction, the curve has moved and the old half
should be discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EstimationError
from repro.sct.grouping import bucketize
from repro.sct.intervention import welch_moments_pvalue
from repro.sct.scatter import Scatter

__all__ = ["DriftReport", "detect_drift"]


@dataclass(frozen=True, slots=True)
class DriftReport:
    """Outcome of one drift check."""

    drifted: bool
    direction: str  # "up", "down", or "none"
    shifted_bands: int
    shared_bands: int
    mean_shift: float  # relative TP change across shared bands

    def describe(self) -> str:
        if not self.drifted:
            return (
                f"stationary ({self.shifted_bands}/{self.shared_bands} "
                f"bands shifted)"
            )
        return (
            f"drift {self.direction}: {self.shifted_bands}/{self.shared_bands} "
            f"bands shifted, mean TP change {self.mean_shift:+.0%}"
        )


def detect_drift(
    old: Scatter,
    new: Scatter,
    alpha: float = 0.01,
    min_shift: float = 0.10,
    min_fraction: float = 0.25,
    min_bands: int = 2,
    min_samples: int = 4,
    bucket_width: int | None = None,
) -> DriftReport:
    """Compare two halves of a window for a capacity-curve shift.

    A shared band counts as *shifted* when its throughput means differ
    by more than ``min_shift`` relatively AND the two-sided Welch test
    rejects equality at ``alpha``. Drift is flagged when at least
    ``min_bands`` bands — and at least ``min_fraction`` of the shared
    bands — shifted in the same direction.

    The threshold is deliberately *not* a majority: physically real
    shifts often touch only part of the curve (doubling a server's
    cores leaves the ascending stage bit-identical and moves only the
    bands above the old knee), and the per-band gate (large relative
    shift AND a significant Welch test) already makes same-direction
    false positives vanishingly unlikely.
    """
    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0, 1), got {alpha!r}")
    if min_shift <= 0.0:
        raise EstimationError(f"min_shift must be > 0, got {min_shift!r}")
    old_bands = bucketize(old, min_samples, bucket_width)
    new_bands = bucketize(new, min_samples, bucket_width)
    # Band levels are ascending in both, so walking the old bands in
    # order visits the shared levels in ascending order.
    new_index = {q: i for i, q in enumerate(new_bands.q)}
    shared = [
        (i, new_index[q]) for i, q in enumerate(old_bands.q) if q in new_index
    ]
    if not shared:
        return DriftReport(
            drifted=False, direction="none", shifted_bands=0,
            shared_bands=0, mean_shift=0.0,
        )
    ups = downs = 0
    rel_shifts: list[float] = []
    for i, j in shared:
        old_tp = old_bands.mean_tp[i]
        new_tp = new_bands.mean_tp[j]
        base = max(old_tp, 1e-12)
        rel = (new_tp - old_tp) / base
        rel_shifts.append(rel)
        if abs(rel) < min_shift:
            continue
        # two-sided: min of the two one-sided p-values, doubled
        a = old_bands.tp_moments(i)
        b = new_bands.tp_moments(j)
        p_less = welch_moments_pvalue(b, a)
        p_greater = welch_moments_pvalue(a, b)
        p_two = min(1.0, 2.0 * min(p_less, p_greater))
        if p_two >= alpha:
            continue
        if rel > 0:
            ups += 1
        else:
            downs += 1
    shifted = max(ups, downs)
    drifted = shifted >= max(min_bands, min_fraction * len(shared))
    direction = "none"
    if drifted:
        direction = "up" if ups >= downs else "down"
    return DriftReport(
        drifted=drifted,
        direction=direction,
        shifted_bands=shifted,
        shared_bands=len(shared),
        mean_shift=float(sum(rel_shifts) / len(rel_shifts)),
    )
