"""Reference SCT estimator: one record per interval, one list per band.

:mod:`repro.sct` runs on columns — a stably band-sorted scatter whose
per-band statistics are numpy reductions over contiguous slices. That
layout is a pure performance structure: on the same points it must give
exactly (bit for bit) the estimate of the textbook record pipeline
below, in which every interval is a :class:`MetricTuple`, every band a
Python list built in scatter order, and every Welch test recomputes its
means and variances from those lists. The code is kept deliberately
plain so it can serve as the oracle the array path is compared against
(``tests/sct/test_reference_oracle.py``).

The estimate reuses :class:`repro.sct.model.SCTEstimate` and the model's
constants, so an oracle mismatch is a difference in arithmetic, not in
the result type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy import special

from repro.errors import EstimationError
from repro.sct.bootstrap import QLowerInterval
from repro.sct.drift import DriftReport
from repro.sct.grouping import band_representative
from repro.sct.model import ALPHA, MIN_BUCKETS, UTIL_THRESHOLD, SCTEstimate
from repro.sct.scatter import Scatter

from tests.monitoring.reference_monitor import IntervalSample


@dataclass(frozen=True, slots=True)
class MetricTuple:
    """One ``{Q, TP, RT}`` observation with its critical-resource util."""

    q: float
    tp: float
    rt: float
    util: float = 1.0


def tuples_from_samples(samples: Iterable[IntervalSample]) -> list[MetricTuple]:
    """Monitoring records as SCT records, dropping idle intervals."""
    out: list[MetricTuple] = []
    for s in samples:
        if s.concurrency <= 1e-9:
            continue
        rt = s.response_time if not math.isnan(s.response_time) else math.nan
        util = max(s.utilization.values()) if s.utilization else 1.0
        out.append(MetricTuple(q=s.concurrency, tp=s.throughput, rt=rt, util=util))
    return out


def tuples_of(scatter: Scatter) -> list[MetricTuple]:
    """The scatter's points as records, in order."""
    return [
        MetricTuple(q, tp, rt, util)
        for q, tp, rt, util in zip(scatter.q.tolist(), scatter.tp.tolist(),
                                   scatter.rt.tolist(), scatter.util.tolist())
    ]


@dataclass(slots=True)
class ConcurrencyBucket:
    """All observations at one (banded) concurrency level."""

    q: int
    tps: list[float] = field(default_factory=list)
    rts: list[float] = field(default_factory=list)
    utils: list[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.tps)

    @property
    def mean_tp(self) -> float:
        return float(np.mean(self.tps)) if self.tps else math.nan

    @property
    def std_tp(self) -> float:
        if len(self.tps) < 2:
            return 0.0
        return float(np.std(self.tps, ddof=1))

    @property
    def mean_rt(self) -> float:
        valid = [r for r in self.rts if not math.isnan(r)]
        return float(np.mean(valid)) if valid else math.nan

    @property
    def mean_util(self) -> float:
        return float(np.mean(self.utils)) if self.utils else math.nan

    def tp_array(self) -> np.ndarray:
        return np.asarray(self.tps, dtype=float)


def bucketize(
    tuples: list[MetricTuple], min_samples: int = 3, width: int | None = None
) -> dict[int, ConcurrencyBucket]:
    """Bucket records by band, dropping buckets under ``min_samples``."""
    if width is not None and width < 1:
        raise ValueError(f"width must be >= 1, got {width!r}")
    buckets: dict[int, ConcurrencyBucket] = {}
    for t in tuples:
        q = max(1, int(round(t.q)))
        if width is None:
            rep = band_representative(q)
        else:
            band = (q - 1) // width
            rep = band * width + (width + 1) // 2
        bucket = buckets.get(rep)
        if bucket is None:
            bucket = buckets[rep] = ConcurrencyBucket(q=rep)
        bucket.tps.append(t.tp)
        bucket.rts.append(t.rt)
        bucket.utils.append(t.util)
    return {q: b for q, b in buckets.items() if b.count >= min_samples}


def welch_t_pvalue(sample_a, sample_b) -> float:
    """One-sided Welch p-value for ``mean(a) < mean(b)``."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    na, nb = a.size, b.size
    ma, mb = float(a.mean()), float(b.mean())
    if na < 2 or nb < 2:
        return 1.0 if ma >= mb else 0.0
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    scale = max(abs(ma), abs(mb), 1e-30)
    if va < (1e-9 * scale) ** 2 and vb < (1e-9 * scale) ** 2:
        return 1.0 if ma >= mb else 0.0
    sea = va / na
    seb = vb / nb
    se2 = sea + seb
    t = (ma - mb) / math.sqrt(se2)
    df = se2 * se2 / (sea * sea / (na - 1) + seb * seb / (nb - 1))
    p = float(special.stdtr(df, t))
    if math.isnan(p):
        return 1.0
    return p


def plateau_pvalues(
    buckets: dict[int, ConcurrencyBucket], peak_q: int
) -> dict[int, float]:
    """p-value of "bucket q is below the peak bucket", for every bucket."""
    peak = buckets[peak_q].tp_array()
    return {
        q: 1.0 if q == peak_q else welch_t_pvalue(bucket.tp_array(), peak)
        for q, bucket in buckets.items()
    }


def estimate(
    tuples: list[MetricTuple],
    tolerance: float = 0.05,
    min_samples: int = 4,
    bucket_width: int | None = None,
    latency_threshold: float | None = None,
) -> SCTEstimate:
    """``SCTModel(...).estimate`` on records."""
    buckets = bucketize(tuples, min_samples, bucket_width)
    if len(buckets) < MIN_BUCKETS:
        raise EstimationError(
            f"need >= {MIN_BUCKETS} concurrency levels with >= "
            f"{min_samples} samples, got {len(buckets)}"
        )
    qs = sorted(buckets)
    peak_q = max(qs, key=lambda q: buckets[q].mean_tp)
    tp_max = buckets[peak_q].mean_tp
    if tp_max <= 0.0:
        raise EstimationError("window contains no completed requests")
    pvals = plateau_pvalues(buckets, peak_q)

    def on_plateau(q: int) -> bool:
        mean = buckets[q].mean_tp
        if mean >= (1.0 - tolerance) * tp_max:
            return True
        return mean >= (1.0 - 3.0 * tolerance) * tp_max and pvals[q] >= ALPHA

    peak_idx = qs.index(peak_q)
    lo_idx = peak_idx
    while lo_idx > 0 and on_plateau(qs[lo_idx - 1]):
        lo_idx -= 1
    hi_idx = peak_idx
    while hi_idx < len(qs) - 1 and on_plateau(qs[hi_idx + 1]):
        hi_idx += 1
    plateau = [buckets[qs[i]] for i in range(lo_idx, hi_idx + 1)]
    plateau_util = float(sum(b.mean_util for b in plateau) / len(plateau))
    sla_met = True
    if latency_threshold is not None:
        sla_met = not (buckets[qs[lo_idx]].mean_rt > latency_threshold)
    return SCTEstimate(
        q_lower=qs[lo_idx],
        q_upper=qs[hi_idx],
        tp_max=tp_max,
        optimal=qs[lo_idx],
        ascending_observed=lo_idx > 0,
        saturation_observed=hi_idx < len(qs) - 1,
        plateau_util=plateau_util,
        hardware_limited=plateau_util >= UTIL_THRESHOLD,
        sla_met=sla_met,
        n_tuples=len(tuples),
    )


def detect_drift(
    old: list[MetricTuple],
    new: list[MetricTuple],
    alpha: float = 0.01,
    min_shift: float = 0.10,
    min_fraction: float = 0.25,
    min_bands: int = 2,
    min_samples: int = 4,
    bucket_width: int | None = None,
) -> DriftReport:
    """``repro.sct.drift.detect_drift`` on records."""
    old_buckets = bucketize(old, min_samples, bucket_width)
    new_buckets = bucketize(new, min_samples, bucket_width)
    shared = sorted(set(old_buckets) & set(new_buckets))
    if not shared:
        return DriftReport(
            drifted=False, direction="none", shifted_bands=0,
            shared_bands=0, mean_shift=0.0,
        )
    ups = downs = 0
    rel_shifts: list[float] = []
    for q in shared:
        a = old_buckets[q]
        b = new_buckets[q]
        base = max(a.mean_tp, 1e-12)
        rel = (b.mean_tp - a.mean_tp) / base
        rel_shifts.append(rel)
        if abs(rel) < min_shift:
            continue
        p_less = welch_t_pvalue(b.tp_array(), a.tp_array())
        p_greater = welch_t_pvalue(a.tp_array(), b.tp_array())
        if min(1.0, 2.0 * min(p_less, p_greater)) >= alpha:
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


def bootstrap_q_lower(
    tuples: list[MetricTuple],
    rng: np.random.Generator,
    n_resamples: int = 200,
    level: float = 0.90,
    **model: object,
) -> QLowerInterval:
    """``repro.sct.bootstrap.bootstrap_q_lower`` on records, with the
    model given as :func:`estimate` keywords."""
    point = estimate(tuples, **model).q_lower
    n = len(tuples)
    estimates: list[int] = []
    failed = 0
    for _ in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        sample = [tuples[i] for i in idx]
        try:
            estimates.append(estimate(sample, **model).q_lower)
        except EstimationError:
            failed += 1
    if failed > n_resamples // 2:
        raise EstimationError(
            f"{failed}/{n_resamples} bootstrap resamples failed; "
            "the window is too thin for an interval"
        )
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(estimates, [100 * alpha, 100 * (1 - alpha)])
    return QLowerInterval(
        point=point,
        lower=int(np.floor(lo)),
        upper=int(np.ceil(hi)),
        level=level,
        n_resamples=n_resamples,
        n_failed=failed,
    )
