"""Small time-series utilities used by the figures and metrics."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError

__all__ = ["coefficient_of_variation", "group_mean_by_time"]


def group_mean_by_time(times, values) -> tuple[np.ndarray, np.ndarray]:
    """Mean of ``values`` grouped by exact timestamp, time-sorted.

    Vectorised replacement for the ``{t: [v, ...]}`` dict aggregation
    the experiment runner used to build per-tier CPU series (O(n·k) in
    pure Python): one ``np.unique`` inverse plus two ``bincount``
    passes. Returns ``(unique_times_ascending, per_time_means)``.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ReproError("group_mean_by_time expects equal-length 1-D arrays")
    if t.size == 0:
        return np.array([]), np.array([])
    unique_t, inverse = np.unique(t, return_inverse=True)
    sums = np.bincount(inverse, weights=v, minlength=unique_t.size)
    counts = np.bincount(inverse, minlength=unique_t.size)
    return unique_t, sums / counts


def coefficient_of_variation(values) -> float:
    """std/mean of the non-NaN entries; the paper's "fluctuation" in one
    number. Returns NaN for empty input, 0 for a zero-mean series."""
    arr = np.asarray(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return float("nan")
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.std() / abs(mean))
