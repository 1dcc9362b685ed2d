"""The scatter: the SCT model's input, one ``{Q, TP, RT}`` point per interval.

The Real-time Metrics Collection phase of the paper gathers, for every
short interval (50 ms), a tuple of the server's concurrency,
throughput and response time. :class:`Scatter` holds those tuples as
columns. Intervals in which the server was completely idle carry no
information about the capacity curve and are dropped when the scatter
is built from a monitoring window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.monitoring.interval import IntervalWindow

__all__ = ["Scatter"]


@dataclass(frozen=True, slots=True, eq=False)
class Scatter:
    """Parallel float64 columns, one entry per interval.

    ``rt`` is NaN where no request completed in the interval (the
    concurrency/throughput pair is still usable for the TP curve).
    ``util`` is the busy utilisation of the server's most-utilised
    hardware resource during the interval — used to tell a *hardware*
    throughput plateau (the server itself saturated) from a plateau
    caused by stalls on a congested downstream tier.
    """

    q: np.ndarray
    tp: np.ndarray
    rt: np.ndarray
    util: np.ndarray

    @classmethod
    def from_window(cls, window: IntervalWindow) -> Scatter:
        """The scatter of a monitoring window, without its idle intervals.

        An interval is *idle* when the time-weighted concurrency is
        (numerically) zero; intervals with concurrency but zero
        completions are kept — they are genuine evidence of a
        stalled/overloaded server and contribute TP = 0 observations to
        their concurrency band.
        """
        busy = window.concurrency > 1e-9
        return cls(
            q=window.concurrency[busy],
            tp=window.throughput[busy],
            rt=window.response_time[busy],
            util=window.util[busy],
        )

    def __len__(self) -> int:
        return int(self.q.size)

    def __getitem__(self, index: slice | np.ndarray) -> Scatter:
        """The points at ``index`` (a slice or an index array), in its order."""
        return Scatter(self.q[index], self.tp[index], self.rt[index],
                       self.util[index])
