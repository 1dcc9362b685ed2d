"""Recurring simulator tasks."""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.sim.engine import PRIORITY_MODEL, Simulator
from repro.sim.event import EventHandle

__all__ = ["PeriodicProcess"]


class PeriodicProcess:
    """Run a callback at a fixed simulated interval.

    This models the paper's agents: the metric warehouse collects per-VM
    metrics "at every one second" and the fine-grained monitors close a
    window every 50 ms. The callback receives the simulator time of the
    tick.

    ``priority`` orders the tick among same-timestamp events (see the
    priority constants in :mod:`repro.sim.engine`): monitoring and
    sampling processes observe model state, so they tick at an observer
    priority rather than racing the mutations they measure.

    The process schedules its next tick *before* invoking the callback,
    so a callback that raises does not silently kill the process chain
    during debugging runs, and stopping from inside the callback works.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[float], None],
        *,
        priority: int = PRIORITY_MODEL,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval!r}")
        self._sim = sim
        self._interval = float(interval)
        self._callback = callback
        self._stopped = False
        self._handle: EventHandle | None = sim.schedule(
            sim.now + interval, self._tick, priority=priority
        )

    @property
    def interval(self) -> float:
        """Tick interval in seconds."""
        return self._interval

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def _tick(self) -> None:
        if self._stopped:
            return
        # Re-arm the handle that just fired instead of allocating a new
        # one each interval; sequencing is identical to a fresh schedule.
        handle = self._handle
        assert handle is not None
        self._handle = self._sim.rearm(handle, self._sim.now + self._interval)
        self._callback(self._sim.now)

    def stop(self) -> None:
        """Cancel all future ticks. Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
