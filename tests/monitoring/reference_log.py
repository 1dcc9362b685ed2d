"""Reference request log: four Python lists, one entry per request.

:class:`repro.monitoring.records.RequestLog` stores float64 columns and
uint16 interaction codes, and takes fluid-step batches in one append.
That layout is a pure performance structure: fed the same requests, it
must return exactly the arrays of the textbook log below, which appends
one Python value per column per :class:`Request` and converts on read.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MonitoringError
from repro.ntier.request import Request


class ListRequestLog:
    """Append-only list-backed log of completed requests."""

    def __init__(self) -> None:
        self._arrivals: list[float] = []
        self._completions: list[float] = []
        self._rts: list[float] = []
        self._interactions: list[str] = []

    def record(self, request: Request) -> None:
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
        return np.asarray(self._rts, dtype=float)

    @property
    def completion_times(self) -> np.ndarray:
        return np.asarray(self._completions, dtype=float)

    @property
    def arrival_times(self) -> np.ndarray:
        return np.asarray(self._arrivals, dtype=float)

    @property
    def interactions(self) -> np.ndarray:
        """The array the artifact's ``interactions`` decodes to."""
        return np.array(self._interactions, dtype=str)
