"""Reference event loop: every pending event in one lazy-deletion heap.

The simulator's calendar is a heap too, with its own bookkeeping: a
reschedule re-stamps the handle's ``seq`` instead of cancelling it,
dead entries are counted and compacted away, and a reverse tie-order
loop batches concurrent events. For the same schedule / cancel /
reschedule / rearm / run calls it must execute exactly the event
sequence of the textbook loop below — one binary heap keyed
``(time, priority, seq)``, cancelled entries discarded as they surface,
a reschedule spelled as cancel plus a fresh schedule. The loop is kept
deliberately plain so it can serve as the oracle the calendar fuzz and
the component tests compare ``Simulator()`` against.

It implements the slice of the simulator surface the components drive
(``now``, ``schedule``, ``schedule_after``, ``reschedule``, ``rearm``,
``run``, ``stop``) plus the counters the tests compare.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import ScheduleError
from repro.sim.engine import PRIORITY_MODEL
from repro.sim.event import EventHandle


class HeapSimulator:
    """A single-heap discrete-event loop with the simulator's semantics."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self.events_executed = 0
        self.pending_events = 0
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        self._stopped = False

    def event_cancelled(self) -> None:
        """:meth:`EventHandle.cancel` hook: the entry stays stored."""
        self.pending_events -= 1

    def _push(self, handle: EventHandle) -> EventHandle:
        if handle.time < self.now:
            raise ScheduleError(
                f"cannot schedule at t={handle.time:.6f}: clock is at "
                f"t={self.now:.6f}"
            )
        heappush(self._heap, (handle.time, handle.priority, handle.seq, handle))
        self.pending_events += 1
        return handle

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq - 1

    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_MODEL,
    ) -> EventHandle:
        handle = EventHandle(
            time, self._next_seq(), callback, args, owner=self, priority=priority
        )
        return self._push(handle)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_MODEL,
    ) -> EventHandle:
        return self.schedule(self.now + delay, callback, *args, priority=priority)

    def reschedule(self, handle: EventHandle, new_time: float) -> EventHandle:
        handle.cancel()
        return self.schedule(
            new_time, handle.callback, *handle.args, priority=handle.priority
        )

    def rearm(self, handle: EventHandle, time: float) -> EventHandle:
        handle.time = time
        handle.seq = self._next_seq()
        handle.done = False
        return self._push(handle)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        self._stopped = False
        budget = -1 if max_events is None else max_events
        heap = self._heap
        while heap and not self._stopped:
            time, _, _, handle = heap[0]
            if handle.cancelled:
                heappop(heap)
                handle.done = True
                continue
            if until is not None and time > until:
                break
            heappop(heap)
            handle.done = True
            self.pending_events -= 1
            self.now = time
            handle.callback(*handle.args)
            self.events_executed += 1
            budget -= 1
            if budget == 0:
                break
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def stop(self) -> None:
        self._stopped = True
