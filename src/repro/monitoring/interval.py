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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.ntier.server import Server
from repro.sim.engine import PRIORITY_FINE_MONITOR, Simulator
from repro.sim.process import PeriodicProcess

__all__ = ["IntervalSample", "IntervalMonitor"]


@dataclass(frozen=True, slots=True)
class IntervalSample:
    """Metrics of one server over one monitoring interval.

    ``response_time`` is NaN when no request completed in the interval.
    """

    t_end: float
    concurrency: float
    throughput: float
    response_time: float
    completions: int
    utilization: dict[str, float]

    @property
    def has_completions(self) -> bool:
        """True when at least one request finished in this interval."""
        return self.completions > 0


class IntervalMonitor:
    """Collects :class:`IntervalSample` tuples for one server."""

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        interval: float = 0.050,
        history: int | None = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval!r}")
        self.sim = sim
        self.server = server
        self.interval = float(interval)
        self.samples: deque[IntervalSample] = deque(maxlen=history)
        self._prev_conc = server.concurrency_integral
        self._prev_completions = server.completions
        self._prev_latency = server.latency_total
        self._prev_util = dict(server.util_integral)
        self._prev_t = sim.now
        self._suspended = False
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
        util = {
            name: (server.util_integral[name] - prev) / dt
            for name, prev in self._prev_util.items()
        }
        sample = IntervalSample(
            t_end=now,
            concurrency=d_conc / dt,
            throughput=d_comp / dt,
            response_time=(d_lat / d_comp) if d_comp > 0 else math.nan,
            completions=d_comp,
            utilization=util,
        )
        self.samples.append(sample)
        self._roll_forward(now)

    def _roll_forward(self, now: float) -> None:
        server = self.server
        self._prev_conc = server.concurrency_integral
        self._prev_completions = server.completions
        self._prev_latency = server.latency_total
        self._prev_util = dict(server.util_integral)
        self._prev_t = now

    # ------------------------------------------------------------------
    def recent(self, window: float) -> list[IntervalSample]:
        """Samples whose interval ended within the last ``window`` seconds."""
        cutoff = self.sim.now - window
        return [s for s in self.samples if s.t_end >= cutoff]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IntervalMonitor({self.server.name!r}, interval={self.interval}, "
            f"samples={len(self.samples)})"
        )
