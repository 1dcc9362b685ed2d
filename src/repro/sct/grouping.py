"""Group a scatter by concurrency level.

For each observed concurrency ``Q_n`` within the window the paper
computes the average throughput and response time, producing the
``{Q̄_n, TP̄_n, RT̄_n}`` series that the estimation phase analyses. We
bucket the (fractional, time-weighted) measured concurrency to the
nearest integer, matching the paper's integer concurrency axis, and
pool levels into bands.

:func:`bucketize` sorts the scatter by band once (stably, so each band
keeps its points in scatter order) and every per-band statistic is a
plain numpy reduction over the band's contiguous slice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.sct.scatter import Scatter

__all__ = ["ConcurrencyBands", "bucketize", "band_representative"]


@dataclass(frozen=True, slots=True, eq=False)
class ConcurrencyBands:
    """A scatter grouped into concurrency bands, ascending by level.

    Band ``i`` pools the points at representative level ``q[i]``; they
    are ``tp[start[i]:stop[i]]`` (and the same slice of ``rt`` and
    ``util``), in scatter order. ``mean_tp[i]`` is the band's average
    throughput. The other statistics are computed on request, since the
    estimator reads them for a few bands only.
    """

    q: list[int]
    start: list[int]
    stop: list[int]
    tp: np.ndarray
    rt: np.ndarray
    util: np.ndarray
    mean_tp: list[float]

    def __len__(self) -> int:
        return len(self.q)

    def tp_moments(self, i: int) -> tuple[float, float, int]:
        """Band ``i``'s throughput ``(mean, variance with ddof=1, count)``.

        The variance of a single observation is reported as 0.0.
        """
        n = self.stop[i] - self.start[i]
        if n < 2:
            return self.mean_tp[i], 0.0, n
        var = float(self.tp[self.start[i]:self.stop[i]].var(ddof=1))
        return self.mean_tp[i], var, n

    def mean_util(self, i: int) -> float:
        """Average busy utilisation of the critical resource in band ``i``."""
        return _mean(self.util[self.start[i]:self.stop[i]])

    def mean_rt(self, i: int) -> float:
        """Average response time in band ``i`` (NaN RTs excluded; NaN if none)."""
        rt = self.rt[self.start[i]:self.stop[i]]
        valid = rt[~np.isnan(rt)]
        return _mean(valid) if valid.size else math.nan


def _mean(x: np.ndarray) -> float:
    """``np.mean`` of a non-empty float64 array.

    The same arithmetic — one ``np.add.reduce``, then a division by the
    count — without ``np.mean``'s Python wrapper, which costs more than
    the sum itself on a band-sized slice.
    """
    return float(np.add.reduce(x)) / x.size


# Geometric banding: exact below _BAND_BASE, bands growing by
# _BAND_RATIO above it. Q_lower almost always lives in the exact
# region, so the estimate keeps unit resolution where it matters while
# the noisy high-concurrency tail is pooled into statistically
# meaningful buckets.
_BAND_BASE = 16
_BAND_RATIO = 1.12
_LOG_RATIO = math.log(_BAND_RATIO)


def band_representative(q: int) -> int:
    """Map a concurrency level to its band's representative level."""
    if q <= _BAND_BASE:
        return q
    k = int(math.log(q / _BAND_BASE) / _LOG_RATIO)
    lo = _BAND_BASE * _BAND_RATIO**k
    hi = lo * _BAND_RATIO
    rep = int(round(math.sqrt(lo * hi)))
    return max(_BAND_BASE + 1, rep)


@functools.lru_cache(maxsize=None)
def _band_table(size: int) -> np.ndarray:
    """:func:`band_representative` of every level below ``size``.

    Read-only, since the cache hands the same table to every caller.
    Sizes are powers of two of at least 1024, so the cache holds one
    table for any realistic concurrency and one more per doubling of
    the highest level ever seen (8 bytes a level).
    """
    table = np.array([band_representative(q) for q in range(size)], dtype=np.int64)
    table.flags.writeable = False
    return table


def bucketize(
    scatter: Scatter,
    min_samples: int = 3,
    width: int | None = None,
) -> ConcurrencyBands:
    """Group a scatter by concurrency band.

    Each point's level is its concurrency rounded half to even (like
    Python's ``round``), at least 1. With ``width=None`` (the default)
    geometric banding is used (see :func:`band_representative`). An
    explicit ``width`` forces uniform bands of that many adjacent
    levels — ``width=1`` reproduces plain per-level bucketing for tests
    and offline analyses.

    Bands with fewer than ``min_samples`` observations are discarded:
    a handful of noisy intervals must not define the capacity curve at
    their concurrency level.
    """
    if width is not None and width < 1:
        raise ValueError(f"width must be >= 1, got {width!r}")
    levels = np.maximum(np.rint(scatter.q), 1.0).astype(np.int64)
    if not levels.size:
        reps = levels
    elif width is None:
        # Every level's band is the scalar band_representative's, looked
        # up in a table: a vectorised np.log can differ from math.log in
        # the last bit at a band edge.
        top = int(levels.max())
        reps = _band_table(max(1024, 1 << top.bit_length()))[levels]
    else:
        reps = (levels - 1) // width * width + (width + 1) // 2
    # Stable, so a band's points keep their scatter order and its
    # reductions add them up in that order.
    order = np.argsort(reps, kind="stable")
    reps = reps[order]
    edges = np.flatnonzero(reps[1:] != reps[:-1]) + 1
    starts = np.concatenate(([0], edges))
    stops = np.concatenate((edges, [reps.size]))
    kept = stops - starts >= max(min_samples, 1)
    start = starts[kept].tolist()
    stop = stops[kept].tolist()
    tp = scatter.tp[order]
    return ConcurrencyBands(
        q=reps[start].tolist(),
        start=start,
        stop=stop,
        tp=tp,
        rt=scatter.rt[order],
        util=scatter.util[order],
        mean_tp=[_mean(tp[a:b]) for a, b in zip(start, stop)],
    )
