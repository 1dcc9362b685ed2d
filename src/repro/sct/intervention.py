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

The Student-t CDF behind the p-value is computed here with ``math``
alone: a regularized incomplete beta by continued fraction
(:func:`_student_t_cdf`). scipy would give the same p-values, but
importing ``scipy.special`` costs every ``repro`` process about 0.4 s
and 20 MB (2-vCPU host) before the first event runs, and numpy is the
only runtime dependency. The p-value is only ever compared with a
significance level, never stored.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EstimationError

__all__ = ["welch_t_pvalue", "welch_moments_pvalue"]


_HALF_LOG_PI = 0.5 * math.log(math.pi)
#: Continued-fraction iteration cap; every df up to 1e7 tried converges
#: in under 70.
_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_CF_TINY = 1e-300


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
    rather than through a statistics library's t-test: the estimator
    calls this on every adaption tick, and taking moments lets it reuse
    the per-band statistics it already has. The CDF is
    :func:`_student_t_cdf`, which agrees with ``scipy.special.stdtr``
    to within 1e-14 over the degrees of freedom a Welch test here sees
    (a few to a few hundred); scipy is not imported, because its import
    alone would outweigh every call a run makes.
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
    p = _student_t_cdf(df, t)
    if math.isnan(p):  # pragma: no cover - defensive
        return 1.0
    return p


def _student_t_cdf(df: float, t: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom.

    The tail is ``P(T <= -|t|) = I_x(df/2, 1/2) / 2`` with
    ``x = df / (df + t**2)``, the regularized incomplete beta
    :func:`_betacf` evaluates. Following the usual convergence rule,
    the fraction runs on ``x`` when ``x < (a+1)/(a+b+2)`` and otherwise
    on ``y = t**2 / (df + t**2)`` through
    ``I_x(a, b) = 1 - I_y(b, a)``; ``y`` is never formed as ``1 - x``.
    The prefactor ``x**a * y**b / B(a, b)`` is taken in log space from
    ``log1p`` terms, and ``lgamma(a + 1/2) - lgamma(a)`` comes from the
    Stirling series once ``a >= 20``: the plain difference of two large
    ``lgamma`` values loses accuracy in proportion to ``df``.

    NaN ``t`` or ``df <= 0`` gives NaN, as ``scipy.special.stdtr`` does.
    """
    if math.isnan(t) or not df > 0.0:
        return math.nan
    if math.isinf(df):
        return 0.5 * math.erfc(-t / math.sqrt(2.0))
    r = t * t / df  # x = 1/(1+r), y = r/(1+r)
    if r == 0.0:  # t = 0, or t*t/df underflows: 0.5 to double precision
        return 0.5
    a = 0.5 * df
    front = math.exp(
        -a * math.log1p(r)
        - 0.5 * math.log1p(1.0 / r)
        + _lgamma_half_step(a)
        - _HALF_LOG_PI
    )
    if (a + 1.0) * r > 1.5:  # x < (a+1)/(a+b+2) with b = 1/2
        tail = 0.5 * front * _betacf(a, 0.5, 1.0 / (1.0 + r)) / a
    else:
        tail = 0.5 - front * _betacf(0.5, a, r / (1.0 + r))
    return tail if t < 0.0 else 1.0 - tail


def _lgamma_half_step(a: float) -> float:
    """``lgamma(a + 1/2) - lgamma(a)`` without cancellation at large ``a``."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (
        a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
        + _stirling_tail(a + 0.5) - _stirling_tail(a)
    )


def _stirling_tail(z: float) -> float:
    """``lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2)``, for ``z >= 20``."""
    w = 1.0 / (z * z)
    return (
        1.0 / 12.0
        + w * (-1.0 / 360.0 + w * (1.0 / 1260.0 + w * (-1.0 / 1680.0 + w / 1188.0)))
    ) / z


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b)``, by the modified Lentz method.

    ``I_x(a, b) = x**a (1-x)**b / (a B(a, b)) * _betacf(a, b, x)``;
    it converges fast for ``x < (a+1)/(a+b+2)``.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise EstimationError(
        f"incomplete beta continued fraction did not converge in "
        f"{_CF_MAX_ITER} iterations (a={a!r}, b={b!r}, x={x!r})"
    )
