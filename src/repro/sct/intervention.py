"""Statistical intervention analysis for plateau detection.

Malkowski et al.'s intervention analysis (the paper's reference [18])
detects bottlenecks by testing whether a metric's distribution differs
significantly between operating regions. The SCT model applies the
same idea to the throughput-vs-concurrency curve: a concurrency level
belongs to the maximum-throughput plateau iff its throughput sample is
*not* significantly below the best band's sample.

We use Welch's unequal-variance t-test (one-sided: "is this band's
mean lower than the peak's?"). A small implementation note: with the
50 ms intervals the per-band samples are plentiful but heteroscedastic
— idle-ish intervals mix with busy ones — which is exactly the case
Welch's test is built for.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["welch_t_pvalue", "welch_moments_pvalue"]


def welch_t_pvalue(sample_a, sample_b) -> float:
    """One-sided Welch p-value for ``mean(a) < mean(b)``.

    Returns the probability of observing a difference at least this
    large if the true means were equal; small values mean *a is
    significantly below b*. See :func:`welch_moments_pvalue` for the
    degenerate cases.
    """
    return welch_moments_pvalue(_moments(sample_a), _moments(sample_b))


def _moments(sample) -> tuple[float, float, int]:
    x = np.asarray(sample, dtype=float)
    mean = float(x.mean())
    if x.size < 2:
        return mean, 0.0, x.size
    return mean, float(x.var(ddof=1)), x.size


def welch_moments_pvalue(
    a: tuple[float, float, int], b: tuple[float, float, int]
) -> float:
    """:func:`welch_t_pvalue` from each sample's ``(mean, var, n)``.

    ``var`` is the ddof=1 sample variance; it is not read when ``n`` is
    below two. Degenerate inputs (fewer than two observations on either
    side, or zero variance everywhere) fall back to a deterministic
    comparison: p = 1.0 when the means are equal or ``a`` is higher,
    0.0 when strictly lower.

    Implemented directly on the Welch statistic and the Student-t CDF
    (``scipy.special.stdtr``) rather than ``scipy.stats.ttest_ind`` —
    the estimator calls this on every adaption tick, and the
    dedicated-path cost matters. Taking moments lets the estimator
    reuse the per-band statistics it already has.
    """
    ma, va, na = a
    mb, vb, nb = b
    if na < 2 or nb < 2:
        return 1.0 if ma >= mb else 0.0
    # Near-constant samples would hit catastrophic cancellation inside
    # the t statistic; decide deterministically instead.
    scale = max(abs(ma), abs(mb), 1e-30)
    if va < (1e-9 * scale) ** 2 and vb < (1e-9 * scale) ** 2:
        return 1.0 if ma >= mb else 0.0
    sea = va / na
    seb = vb / nb
    se2 = sea + seb
    t = (ma - mb) / math.sqrt(se2)
    # Welch–Satterthwaite effective degrees of freedom.
    df = se2 * se2 / (sea * sea / (na - 1) + seb * seb / (nb - 1))
    p = float(special.stdtr(df, t))
    if math.isnan(p):  # pragma: no cover - defensive
        return 1.0
    return p
