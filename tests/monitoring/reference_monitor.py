"""Reference fine monitor: one frozen record per 50 ms interval.

:class:`repro.monitoring.interval.IntervalMonitor` stores its samples as
columns of one float64 block. That layout is a pure performance
structure: driven by the same server, it must hold exactly the values of
the textbook monitor below, which appends one :class:`IntervalSample`
(with a per-resource utilisation dict) per tick to a deque, drops old
samples by popping from the left and filters its deque for a window.
The monitor tests run both side by side and compare them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.ntier.server import Server
from repro.sim.engine import PRIORITY_FINE_MONITOR, Simulator
from repro.sim.process import PeriodicProcess


@dataclass(frozen=True, slots=True)
class IntervalSample:
    """Metrics of one server over one monitoring interval."""

    t_end: float
    concurrency: float
    throughput: float
    response_time: float
    completions: int
    utilization: dict[str, float]

    @property
    def has_completions(self) -> bool:
        return self.completions > 0


class RecordMonitor:
    """Collects :class:`IntervalSample` records for one server."""

    def __init__(self, sim: Simulator, server: Server, interval: float) -> None:
        self.sim = sim
        self.server = server
        self.samples: deque[IntervalSample] = deque()
        self._prev_conc = server.concurrency_integral
        self._prev_completions = server.completions
        self._prev_latency = server.latency_total
        self._prev_util = dict(server.util_integral)
        self._prev_t = sim.now
        self._suspended = False
        PeriodicProcess(sim, interval, self._tick, priority=PRIORITY_FINE_MONITOR)

    def suspend(self) -> None:
        self._suspended = True

    def resume(self) -> None:
        self._suspended = False

    def _tick(self, now: float) -> None:
        server = self.server
        server.sync_monitors()
        dt = now - self._prev_t
        if dt <= 0:
            return
        if not self._suspended:
            d_comp = server.completions - self._prev_completions
            d_lat = server.latency_total - self._prev_latency
            self.samples.append(IntervalSample(
                t_end=now,
                concurrency=(server.concurrency_integral - self._prev_conc) / dt,
                throughput=d_comp / dt,
                response_time=(d_lat / d_comp) if d_comp > 0 else math.nan,
                completions=d_comp,
                utilization={
                    name: (server.util_integral[name] - prev) / dt
                    for name, prev in self._prev_util.items()
                },
            ))
        self._prev_conc = server.concurrency_integral
        self._prev_completions = server.completions
        self._prev_latency = server.latency_total
        self._prev_util = dict(server.util_integral)
        self._prev_t = now

    def recent(self, window: float) -> list[IntervalSample]:
        cutoff = self.sim.now - window
        return [s for s in self.samples if s.t_end >= cutoff]

    def clear(self) -> None:
        self.samples.clear()

    def trim(self, keep_after: float) -> int:
        removed = 0
        while self.samples and self.samples[0].t_end < keep_after:
            self.samples.popleft()
            removed += 1
        return removed
