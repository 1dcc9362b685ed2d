"""The ConScale Metric Warehouse.

Mirrors Fig. 8 of the paper: monitoring agents in every VM push
application- and system-level metrics every second (step 1); the
Decision Controller reads tier-level CPU utilisation from here, and the
Optimal Concurrency Estimator asynchronously pulls the fine-grained
(50 ms) concurrency/throughput tuples that feed the SCT model.

The warehouse owns one :class:`~repro.monitoring.interval.IntervalMonitor`
per registered server, so servers added by scale-out are monitored from
the moment they join.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import MonitoringError
from repro.monitoring.interval import IntervalMonitor, IntervalSample
from repro.ntier.server import Server
from repro.sim.engine import PRIORITY_SAMPLER, PRIORITY_WAREHOUSE, Simulator
from repro.sim.process import PeriodicProcess

__all__ = ["VmSample", "MetricWarehouse"]


@dataclass(frozen=True, slots=True)
class VmSample:
    """One VM's system-level metrics over one warehouse tick."""

    t_end: float
    server: str
    tier: str
    cpu: float
    concurrency: float
    throughput: float


class _VmState:
    """Per-server monitoring agent handle.

    The differencing baselines (previous integrals and tick time) live
    in the warehouse's numpy arrays, indexed by the server's position in
    the name-sorted ``_order`` list — per-tick collection then runs as
    one vectorised subtract-and-divide over the fleet instead of a dict
    copy per server per second.
    """

    __slots__ = ("server", "fine", "cpu_name")

    def __init__(self, server: Server, fine: IntervalMonitor) -> None:
        self.server = server
        self.fine = fine
        # The primary resource whose busy integral feeds the 1 s cpu
        # signal; pinned at registration (see the guard in _collect).
        self.cpu_name = server.capacity.resources[0].name


class MetricWarehouse:
    """Collects per-VM metrics at 1 s and per-server tuples at 50 ms."""

    def __init__(
        self,
        sim: Simulator,
        tick: float = 1.0,
        fine_interval: float = 0.050,
        history_seconds: float = 900.0,
        fine_history: int | None = None,
    ) -> None:
        self.sim = sim
        self.tick = float(tick)
        self.fine_interval = float(fine_interval)
        self._states: dict[str, _VmState] = {}
        # Name-sorted registry plus the differencing baselines, kept as
        # parallel numpy arrays: _prev[i] = (cpu busy integral,
        # concurrency integral, completions) of _order[i] at its last
        # recorded tick, _prev_t[i] = that tick's time.
        self._order: list[str] = []
        self._prev = np.zeros((0, 3), dtype=np.float64)
        self._prev_t = np.zeros(0, dtype=np.float64)
        self._history: deque[VmSample] = deque()
        self._history_seconds = float(history_seconds)
        self._fine_history = fine_history
        # Tiers currently in a telemetry blackout ("*" = every tier).
        self._blackout: set[str] = set()
        self._last_sample_t: dict[str, float] = {}  # tier -> newest t_end
        self._process = PeriodicProcess(
            sim, self.tick, self._collect, priority=PRIORITY_WAREHOUSE
        )

    # ------------------------------------------------------------------
    # registration (called as VMs come and go)
    # ------------------------------------------------------------------
    def register_server(self, server: Server) -> None:
        """Install the monitoring agent on a (new) server."""
        if server.name in self._states:
            raise MonitoringError(f"server {server.name!r} is already monitored")
        fine = IntervalMonitor(
            self.sim, server, self.fine_interval, history=self._fine_history
        )
        if self._in_blackout(server.tier):
            fine.suspend()
        state = _VmState(server, fine)
        self._states[server.name] = state
        pos = bisect_left(self._order, server.name)
        self._order.insert(pos, server.name)
        baseline = [
            server.util_integral[state.cpu_name],
            server.concurrency_integral,
            float(server.completions),
        ]
        self._prev = np.insert(self._prev, pos, baseline, axis=0)
        self._prev_t = np.insert(self._prev_t, pos, self.sim.now)

    def deregister_server(self, name: str) -> None:
        """Remove a retired server's agent (its history stays queryable)."""
        state = self._states.pop(name, None)
        if state is None:
            raise MonitoringError(f"server {name!r} is not monitored")
        state.fine.stop()
        pos = self._order.index(name)
        del self._order[pos]
        self._prev = np.delete(self._prev, pos, axis=0)
        self._prev_t = np.delete(self._prev_t, pos)

    @property
    def monitored_servers(self) -> list[str]:
        """Names of currently monitored servers."""
        return list(self._order)

    def reset_fine_history(self, name: str) -> None:
        """Drop one server's fine-grained history.

        Called after a vertical scaling action: the server's capacity
        curve changed, so scatter collected under the old hardware
        would poison the SCT estimate (it still describes the old
        optimum). Future samples accumulate normally.
        """
        state = self._states.get(name)
        if state is None:
            raise MonitoringError(f"server {name!r} is not monitored")
        state.fine.samples.clear()

    def trim_fine_history(self, name: str, keep_after: float) -> int:
        """Drop one server's fine samples older than ``keep_after``.

        Used by the drift detector: when the capacity curve is found to
        have shifted mid-window, only the post-shift scatter remains
        valid. Returns the number of samples removed.
        """
        state = self._states.get(name)
        if state is None:
            raise MonitoringError(f"server {name!r} is not monitored")
        removed = 0
        samples = state.fine.samples
        while samples and samples[0].t_end < keep_after:
            samples.popleft()
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # telemetry blackout (fault injection)
    # ------------------------------------------------------------------
    def _in_blackout(self, tier: str) -> bool:
        return "*" in self._blackout or tier in self._blackout

    def begin_blackout(self, tier: str = "*") -> None:
        """Start a telemetry dropout for a tier (``"*"`` = all tiers).

        Both the 1 s VM samples and the 50 ms fine monitors of affected
        servers stop recording; differencing state keeps rolling so no
        bogus catch-up samples appear when the blackout ends. Downstream
        consumers must treat the resulting hole as staleness, not as
        zero load.
        """
        self._blackout.add(tier)
        for state in self._states.values():
            if self._in_blackout(state.server.tier):
                state.fine.suspend()

    def end_blackout(self, tier: str = "*") -> None:
        """End a telemetry dropout; collection resumes on the next tick."""
        self._blackout.discard(tier)
        for state in self._states.values():
            if not self._in_blackout(state.server.tier):
                state.fine.resume()

    def telemetry_age(self, tier: str) -> float:
        """Seconds since the newest 1 s sample of a tier (inf if none).

        The staleness signal controllers consult before trusting
        windowed aggregates: during a blackout :meth:`tier_cpu` would
        otherwise quietly decay to 0.0 and read as an idle tier.
        """
        last = self._last_sample_t.get(tier)
        if last is None:
            return float("inf")
        return self.sim.now - last

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def _collect(self, now: float) -> None:
        # Name-sorted (_order) so the per-tick sample/publication order
        # is a function of the fleet, not of registration order (which
        # the tie-order of concurrent bootstrap/scale-out completions
        # sets). The rate arithmetic is one vectorised pass over the
        # fleet; only the integral reads and the sample fan-out remain
        # per-server Python.
        order = self._order
        n = len(order)
        if n:
            states = self._states
            cur = np.empty((n, 3), dtype=np.float64)
            blackout = np.zeros(n, dtype=bool)
            tiers: list[str] = []
            for i, name in enumerate(order):
                state = states[name]
                server = state.server
                server.sync_monitors()
                if server.capacity.resources[0].name != state.cpu_name:
                    # The baseline in _prev is the busy integral of the
                    # resource pinned at registration; differencing it
                    # against a different resource would fabricate a
                    # rate. (Vertical scaling swaps the capacity curve
                    # but keeps the primary resource's identity.)
                    raise MonitoringError(
                        f"server {name!r} changed primary resource "
                        f"{state.cpu_name!r} -> "
                        f"{server.capacity.resources[0].name!r}; "
                        "re-register it to monitor the new resource"
                    )
                cur[i, 0] = server.util_integral[state.cpu_name]
                cur[i, 1] = server.concurrency_integral
                cur[i, 2] = server.completions
                tiers.append(server.tier)
                blackout[i] = self._in_blackout(server.tier)
            dt = now - self._prev_t
            fresh = dt > 0.0
            rates = np.zeros_like(cur)
            np.divide(cur - self._prev, dt[:, None], out=rates,
                      where=fresh[:, None])
            for i in np.nonzero(fresh & ~blackout)[0].tolist():
                tier = tiers[i]
                self._history.append(
                    VmSample(
                        t_end=now, server=order[i], tier=tier,
                        cpu=float(rates[i, 0]),
                        concurrency=float(rates[i, 1]),
                        throughput=float(rates[i, 2]),
                    )
                )
                self._last_sample_t[tier] = now
            # Blacked-out servers roll forward without recording, so no
            # bogus catch-up sample appears when the blackout ends.
            np.copyto(self._prev, cur, where=fresh[:, None])
            self._prev_t[fresh] = now
        cutoff = now - self._history_seconds
        while self._history and self._history[0].t_end < cutoff:
            self._history.popleft()

    def register_sampler(
        self,
        fn: Callable[[float], None],
        *,
        priority: int = PRIORITY_SAMPLER,
    ) -> PeriodicProcess:
        """Run ``fn(now)`` on the warehouse's collection cadence.

        Samplers tick at the same 1 s interval as VM collection but at
        an end-of-instant priority, so they observe the settled picture
        of each tick — warehouse aggregates updated, controllers done
        acting. The experiment runner registers its VM-count sampler
        here instead of wiring its own periodic process.
        """
        return PeriodicProcess(self.sim, self.tick, fn, priority=priority)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def samples(self, window: float, tier: str | None = None) -> list[VmSample]:
        """VM samples from the last ``window`` seconds, optionally by tier."""
        cutoff = self.sim.now - window
        return [
            s
            for s in self._history
            if s.t_end >= cutoff and (tier is None or s.tier == tier)
        ]

    def tier_cpu(self, tier: str, window: float = 10.0) -> float:
        """Mean CPU utilisation of a tier over the recent window.

        This is the signal the threshold-based hardware scalers watch
        ("average CPU utilisation of the Tomcat/MySQL tier"). Returns
        0.0 if no samples exist yet (e.g. the first seconds of a run).
        """
        samples = self.samples(window, tier)
        if not samples:
            return 0.0
        return sum(s.cpu for s in samples) / len(samples)

    def fine_samples(
        self, server_name: str, window: float
    ) -> list[IntervalSample]:
        """Fine-grained (50 ms) tuples of one server over the window.

        This is the asynchronous pull path of the Optimal Concurrency
        Estimator (step 2 in Fig. 8).
        """
        state = self._states.get(server_name)
        if state is None:
            raise MonitoringError(f"server {server_name!r} is not monitored")
        return state.fine.recent(window)

    def fine_samples_for_tier(
        self, tier: str, window: float
    ) -> dict[str, list[IntervalSample]]:
        """Fine-grained tuples of every monitored server in a tier."""
        return {
            name: self._states[name].fine.recent(window)
            for name in sorted(self._states)
            if self._states[name].server.tier == tier
        }

    def all_fine_samples(
        self, window: float
    ) -> dict[str, tuple[str, list[IntervalSample]]]:
        """Every monitored server's ``(tier, samples)`` over the window.

        The end-of-run export the experiment engine uses to build
        serializable artifacts — afterwards the warehouse (and the
        simulator underneath it) can be dropped entirely.
        """
        return {
            name: (self._states[name].server.tier,
                   self._states[name].fine.recent(window))
            for name in sorted(self._states)
        }
