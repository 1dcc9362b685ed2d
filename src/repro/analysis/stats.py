"""Fluctuation metrics for response-time timelines.

Quantifies what the paper shows visually in Fig. 1/10/11: how often and
how badly the response time spikes during scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.series import coefficient_of_variation
from repro.errors import ReproError

__all__ = ["spike_episodes", "fluctuation_summary", "FluctuationSummary"]


def spike_episodes(times, values, threshold: float) -> list[tuple[float, float]]:
    """Contiguous episodes where ``values`` exceeds ``threshold``.

    Returns ``[(start_time, end_time), ...]``; NaN entries break
    episodes. This is how "the response time spikes at 62 s, 244 s and
    545 s" style statements are extracted from a timeline.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ReproError("times and values must have identical shapes")
    episodes: list[tuple[float, float]] = []
    start: float | None = None
    for i in range(t.size):
        above = not np.isnan(v[i]) and v[i] > threshold
        if above and start is None:
            start = float(t[i])
        elif not above and start is not None:
            episodes.append((start, float(t[i])))
            start = None
    if start is not None:
        episodes.append((start, float(t[-1])))
    return episodes


@dataclass(frozen=True, slots=True)
class FluctuationSummary:
    """Stability metrics of one response-time timeline."""

    cov: float
    n_spikes: int
    time_above_sla: float
    worst_value: float


def fluctuation_summary(times, values, sla: float) -> FluctuationSummary:
    """Summarise a timeline's stability against an SLA threshold."""
    v = np.asarray(values, dtype=float)
    valid = v[~np.isnan(v)]
    episodes = spike_episodes(times, values, sla)
    return FluctuationSummary(
        cov=coefficient_of_variation(values),
        n_spikes=len(episodes),
        time_above_sla=float(sum(e - s for s, e in episodes)),
        worst_value=float(valid.max()) if valid.size else float("nan"),
    )
