"""End-to-end request logs and timeline bins.

The evaluation figures (Fig. 1, 10, 11) plot system response time and
throughput over the experiment timeline, and Table I reports tail
percentiles. :class:`RequestLog` captures completed requests compactly
during a run; once the run is over, the runner closes it and hands its
columns, interaction codes and name table included, to the
:class:`~repro.experiments.artifact.RunArtifact` as views, not copies.
The artifact's ``timeline`` (in :class:`TimelineBin` rows),
``percentile`` and ``by_interaction`` give both views.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from repro.errors import MonitoringError
from repro.ntier.request import Request

__all__ = ["RequestLog", "TimelineBin"]

#: Interaction codes are uint16 indices into the log's name table.
_MAX_NAMES = 1 << 16


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
    """Append-only columnar log of completed requests.

    Register :meth:`record` as an application completion listener for
    discrete requests; the fluid integrator appends each step's
    synthetic completions in one :meth:`record_batch`. Arrival and
    completion are float64 columns, and each request's interaction is
    a uint16 code into a table of the names logged so far, so a record
    costs 18 bytes; a response time is computed on read. The log builds
    no strings: it hands the codes and the name table to the artifact,
    which decodes them on read.

    Until :meth:`close`, the properties return copies: a live view of
    a column would make its next append raise ``BufferError``. After
    it, the log takes no more records and the properties return
    writeable views of its buffers, so the columns exist once.
    """

    def __init__(self) -> None:
        self._arrivals = array("d")
        self._completions = array("d")
        self._codes = array("H")
        # Only names with at least one record, so the widest entry is
        # the widest name present (it sets the decoded dtype).
        self._names: list[str] = []
        self._code_of: dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def record(self, request: Request) -> None:
        """Store one completed request."""
        if self._closed:
            self._refuse()
        if request.completion is None:
            raise MonitoringError(
                f"request {request.req_id} recorded before completion"
            )
        code = self._code_of.get(request.interaction)
        if code is None:
            code = self._add_name(request.interaction)
        self._arrivals.append(request.arrival)
        self._completions.append(request.completion)
        self._codes.append(code)

    def record_batch(
        self,
        arrivals: np.ndarray,
        completion: float,
        picks: np.ndarray,
        names: Sequence[str],
    ) -> None:
        """Store requests that all completed at ``completion``.

        Request ``i`` arrived at ``arrivals[i]`` and ran interaction
        ``names[picks[i]]``. The rows are the ones :meth:`record` would
        store for the same requests in the same order. Names new to the
        log get their codes in the order of ``names`` (ascending picked
        index), not in the order the picks first name them; the codes
        are part of the cached artifact's bytes.
        """
        if self._closed:
            self._refuse()
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.shape != np.shape(picks) or arrivals.ndim != 1:
            raise MonitoringError(
                f"batch of {arrivals.shape} arrivals with {np.shape(picks)} picks"
            )
        count = arrivals.size
        if not count:
            return
        # The log's code for each of ``names``, filled for picked ones.
        pick_codes = np.zeros(len(names), dtype=np.uint16)
        for idx in np.flatnonzero(np.bincount(picks, minlength=len(names))):
            name = names[idx]
            code = self._code_of.get(name)
            pick_codes[idx] = self._add_name(name) if code is None else code
        completions = np.full(count, completion, dtype=float)
        self._arrivals.frombytes(arrivals.tobytes())
        self._completions.frombytes(completions.tobytes())
        self._codes.frombytes(pick_codes[picks].tobytes())

    def _add_name(self, name: str) -> int:
        code = len(self._names)
        if code == _MAX_NAMES:
            raise MonitoringError(f"more than {_MAX_NAMES} interaction names")
        self._names.append(name)
        self._code_of[name] = code
        return code

    def _refuse(self) -> NoReturn:
        raise MonitoringError(
            f"the request log is closed ({len(self)} records); it takes no more"
        )

    def close(self) -> None:
        """End recording: from now on the column properties return
        views of the log's buffers, and :meth:`record` and
        :meth:`record_batch` raise :class:`MonitoringError`."""
        self._closed = True

    def _column(self, column: array, dtype: type) -> np.ndarray:
        if self._closed:
            return np.frombuffer(column, dtype=dtype)
        return np.array(column, dtype=dtype)

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def response_times(self) -> np.ndarray:
        """Latencies of all completed requests (seconds): completion
        minus arrival, a new array on every read."""
        return self.completion_times - self.arrival_times

    @property
    def completion_times(self) -> np.ndarray:
        """Completion timestamps (seconds)."""
        return self._column(self._completions, np.float64)

    @property
    def arrival_times(self) -> np.ndarray:
        """Arrival timestamps (seconds)."""
        return self._column(self._arrivals, np.float64)

    @property
    def interaction_codes(self) -> np.ndarray:
        """Interaction of each completed request, as uint16 codes into
        :attr:`interaction_names`."""
        return self._column(self._codes, np.uint16)

    @property
    def interaction_names(self) -> tuple[str, ...]:
        """The names logged so far, in code order."""
        return tuple(self._names)
