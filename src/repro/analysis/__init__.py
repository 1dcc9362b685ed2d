"""Result analysis: time-series helpers and fluctuation metrics."""

from repro.analysis.series import coefficient_of_variation
from repro.analysis.stats import fluctuation_summary, spike_episodes

__all__ = [
    "coefficient_of_variation",
    "fluctuation_summary",
    "spike_episodes",
]
