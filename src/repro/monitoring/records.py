"""End-to-end request logs and timeline bins.

The evaluation figures (Fig. 1, 10, 11) plot system response time and
throughput over the experiment timeline, and Table I reports tail
percentiles. :class:`RequestLog` captures completed requests compactly
during a run; the runner copies its arrays into the
:class:`~repro.experiments.artifact.RunArtifact`, whose ``timeline``
(in :class:`TimelineBin` rows), ``percentile`` and ``by_interaction``
give both views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MonitoringError
from repro.ntier.request import Request

__all__ = ["RequestLog", "TimelineBin"]


@dataclass(frozen=True, slots=True)
class TimelineBin:
    """Aggregated system metrics over one timeline bin."""

    t_start: float
    t_end: float
    completions: int
    throughput: float
    mean_rt: float
    p95_rt: float
    max_rt: float


class RequestLog:
    """Append-only log of completed requests.

    Register :meth:`record` as an application completion listener; the
    arrays grow in amortised O(1) and convert to numpy on demand.
    """

    def __init__(self) -> None:
        self._arrivals: list[float] = []
        self._completions: list[float] = []
        self._rts: list[float] = []
        self._interactions: list[str] = []

    # ------------------------------------------------------------------
    def record(self, request: Request) -> None:
        """Store one completed request."""
        if request.completion is None:
            raise MonitoringError(
                f"request {request.req_id} recorded before completion"
            )
        self._arrivals.append(request.arrival)
        self._completions.append(request.completion)
        self._rts.append(request.completion - request.arrival)
        self._interactions.append(request.interaction)

    def __len__(self) -> int:
        return len(self._rts)

    @property
    def response_times(self) -> np.ndarray:
        """Latencies of all completed requests (seconds)."""
        return np.asarray(self._rts, dtype=float)

    @property
    def completion_times(self) -> np.ndarray:
        """Completion timestamps (seconds)."""
        return np.asarray(self._completions, dtype=float)

    @property
    def arrival_times(self) -> np.ndarray:
        """Arrival timestamps (seconds)."""
        return np.asarray(self._arrivals, dtype=float)

    @property
    def interactions(self) -> list[str]:
        """RUBBoS interaction name of each completed request."""
        return list(self._interactions)
