"""Fine-grained per-server interval monitoring.

The paper assumes each server keeps a request-processing log recording
arrival/departure of every request at millisecond granularity, then
derives per-50 ms-interval metrics:

* **concurrency** — concurrent in-processing requests (time-weighted
  average over the interval),
* **throughput** — request completions per second,
* **response time** — mean latency of the requests completed in the
  interval.

:class:`IntervalMonitor` produces exactly those tuples by differencing
the server's monotone accumulators at a fixed period, which is
equivalent to (but far cheaper than) post-processing the full log.

The samples are stored as columns: one float64 block with a row per
field and a column per interval. Readers get an :class:`IntervalWindow`
of named column views and never see the layout. The views are read-only
until the run's end, when :meth:`IntervalMonitor.close` hands them over
writeable.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.ntier.server import Server
from repro.sim.engine import PRIORITY_FINE_MONITOR, Simulator
from repro.sim.process import PeriodicProcess

__all__ = ["IntervalWindow", "IntervalMonitor"]

#: The block's rows, in order. ``response_time`` is NaN where no
#: request completed; ``completions`` holds whole counts; ``util`` is
#: the busy utilisation of the server's most-utilised resource (1.0 for
#: a server without resources).
_FIELDS = ("t_end", "concurrency", "throughput", "response_time",
           "completions", "util")
#: Columns of a fresh block.
_INITIAL_COLUMNS = 256


class IntervalWindow:
    """Consecutive interval samples of one server, as named columns.

    Each field is a float64 array with one entry per interval, oldest
    first, read-only unless the window comes from a closed monitor.
    ``len()`` counts the intervals and slicing (``window[a:b]``) selects
    a run of them.
    """

    __slots__ = ("_block",) + _FIELDS

    t_end: np.ndarray
    concurrency: np.ndarray
    throughput: np.ndarray
    response_time: np.ndarray
    completions: np.ndarray
    util: np.ndarray

    def __init__(self, block: np.ndarray) -> None:
        """View ``block``, one row per field in ``_FIELDS`` order; the
        columns are writeable if ``block`` is.

        Outside this module, build a window with :meth:`from_columns`.
        """
        self._block = block
        for name, column in zip(_FIELDS, block):
            setattr(self, name, column)

    @classmethod
    def from_columns(
        cls,
        *,
        t_end: np.ndarray,
        concurrency: np.ndarray,
        throughput: np.ndarray,
        response_time: np.ndarray,
        completions: np.ndarray,
        util: np.ndarray,
    ) -> IntervalWindow:
        """A read-only window over copies of the given equal-length
        columns."""
        block = np.array(
            [t_end, concurrency, throughput, response_time, completions, util],
            dtype=np.float64,
        )
        block.flags.writeable = False
        return cls(block)

    def __len__(self) -> int:
        return self._block.shape[1]

    def __getitem__(self, index: slice) -> IntervalWindow:
        if not isinstance(index, slice):
            raise TypeError("an IntervalWindow only slices; index its columns")
        return IntervalWindow(self._block[:, index])


class IntervalMonitor:
    """Collects one server's interval samples, one block column per tick.

    :meth:`recent` and :attr:`samples` hand out :class:`IntervalWindow`
    views, read-only until :meth:`close`; :meth:`clear` and :meth:`trim`
    drop samples from the front.
    """

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        interval: float = 0.050,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval!r}")
        self.sim = sim
        self.server = server
        self.interval = float(interval)
        # Live samples are the block's columns [_start, _end). Nothing
        # already written is ever overwritten: growth copies the live
        # columns into a new block, and dropping samples only moves
        # _start, so a window handed out earlier stays valid.
        self._block = np.empty((len(_FIELDS), _INITIAL_COLUMNS))
        self._start = 0
        self._end = 0
        self._prev_conc = server.concurrency_integral
        self._prev_completions = server.completions
        self._prev_latency = server.latency_total
        self._prev_util = dict(server.util_integral)
        self._prev_t = sim.now
        self._suspended = False
        self._closed = False
        self._process = PeriodicProcess(
            sim, self.interval, self._tick, priority=PRIORITY_FINE_MONITOR
        )

    def stop(self) -> None:
        """Stop sampling (existing samples remain readable)."""
        self._process.stop()

    def suspend(self) -> None:
        """Telemetry dropout: keep ticking but record nothing.

        The differencing state stays fresh so no burst of bogus samples
        appears on :meth:`resume` — the window simply has a hole, which
        downstream staleness checks must notice.
        """
        self._suspended = True

    def resume(self) -> None:
        """End a telemetry dropout; sampling restarts from now."""
        self._suspended = False

    def close(self) -> None:
        """The run is over: from now on windows are writeable views of
        the block, for a reader that keeps them without a copy (a
        read-only array pickles to other bytes and loads read-only).

        A column once written is never overwritten, so such views stay
        valid whatever the monitor does next.
        """
        self._closed = True

    def _tick(self, now: float) -> None:
        server = self.server
        server.sync_monitors()
        dt = now - self._prev_t
        if dt <= 0:
            return
        if self._suspended:
            self._roll_forward(now)
            return
        d_conc = server.concurrency_integral - self._prev_conc
        d_comp = server.completions - self._prev_completions
        d_lat = server.latency_total - self._prev_latency
        util = max(
            ((server.util_integral[name] - prev) / dt
             for name, prev in self._prev_util.items()),
            default=1.0,
        )
        if self._end == self._block.shape[1]:
            self._grow()
        self._block[:, self._end] = (
            now,
            d_conc / dt,
            d_comp / dt,
            (d_lat / d_comp) if d_comp > 0 else math.nan,
            d_comp,
            util,
        )
        self._end += 1
        self._roll_forward(now)

    def _grow(self) -> None:
        live = self._end - self._start
        block = np.empty((len(_FIELDS), max(_INITIAL_COLUMNS, 2 * live)))
        block[:, :live] = self._block[:, self._start:self._end]
        self._block = block
        self._start, self._end = 0, live

    def _roll_forward(self, now: float) -> None:
        server = self.server
        self._prev_conc = server.concurrency_integral
        self._prev_completions = server.completions
        self._prev_latency = server.latency_total
        self._prev_util = dict(server.util_integral)
        self._prev_t = now

    # ------------------------------------------------------------------
    def _window(self, first: int) -> IntervalWindow:
        block = self._block[:, first:self._end]
        block.flags.writeable = self._closed
        return IntervalWindow(block)

    @property
    def samples(self) -> IntervalWindow:
        """Every retained sample."""
        return self._window(self._start)

    def recent(self, window: float) -> IntervalWindow:
        """Samples whose interval ended within the last ``window`` seconds."""
        t_end = self._block[0, self._start:self._end]
        first = self._start + int(
            np.searchsorted(t_end, self.sim.now - window, side="left")
        )
        return self._window(first)

    def clear(self) -> None:
        """Drop every retained sample; sampling carries on."""
        self._start = self._end

    def trim(self, keep_after: float) -> int:
        """Drop the samples that ended before ``keep_after``.

        Returns the number of samples dropped.
        """
        t_end = self._block[0, self._start:self._end]
        removed = int(np.searchsorted(t_end, keep_after, side="left"))
        self._start += removed
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IntervalMonitor({self.server.name!r}, interval={self.interval}, "
            f"samples={self._end - self._start})"
        )
