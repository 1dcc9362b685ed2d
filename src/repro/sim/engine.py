"""The simulator clock, its event calendar and the run loops.

Pending events live in one binary heap of ``(time, priority, seq,
handle)`` entries. ``heapq`` compares the tuples in C, and ``seq`` is
unique, so a handle is never compared. Cancelling and rescheduling are
*lazy*: the old entry stays in the heap and is dropped when it surfaces
(see :class:`Simulator`), and the heap is compacted once dead entries
outnumber live ones.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import isfinite
from typing import Any, Callable

from repro.errors import ConfigurationError, ScheduleError, SimulationError
from repro.sim.event import EventHandle

__all__ = [
    "Simulator",
    "TIE_ORDERS",
    "PRIORITY_MODEL",
    "PRIORITY_FLUID",
    "PRIORITY_WAREHOUSE",
    "PRIORITY_GOVERNOR",
    "PRIORITY_CONTROLLER",
    "PRIORITY_SAMPLER",
    "PRIORITY_FINE_MONITOR",
]

# ----------------------------------------------------------------------
# event priorities
# ----------------------------------------------------------------------
# Same-timestamp events execute in ascending priority; events sharing a
# (time, priority) pair are *concurrent* and must be order-independent
# (the ``tie_order="reverse"`` debug mode permutes exactly those — see
# the race twin check in repro.experiments.twincheck). The
# layering encodes the causal phases of one simulated instant: the model
# mutates state, the warehouse aggregates it, controllers act on the
# aggregates, and samplers record the settled picture.

#: Model/mutator events: arrivals, completions, launches, faults.
PRIORITY_MODEL = 0
#: The fluid integrator's fixed-step tick. Strictly after the model
#: events of the same instant: a VM boot completing exactly on the
#: integration grid must attach its server *before* the step that ends
#: there, otherwise the tick/attach tie-order would decide which
#: topology the step integrates against (a race the tie-order detector
#: flags).
PRIORITY_FLUID = 5
#: The metric warehouse's 1 s collection tick.
PRIORITY_WAREHOUSE = 10
#: The hybrid-mode governor's tick: after the warehouse has aggregated
#: the instant (so telemetry it inspects is settled) but before the
#: controllers act, so a mode switch at t is visible to the decision
#: tick at the same t.
PRIORITY_GOVERNOR = 15
#: Controller decision ticks (read telemetry, command the actuator).
PRIORITY_CONTROLLER = 20
#: End-of-instant samplers (e.g. the runner's VM-count sampler).
PRIORITY_SAMPLER = 30
#: Fine-grained (50 ms) per-server interval monitors.
PRIORITY_FINE_MONITOR = 40

#: Recognised tie-break orders for same-(time, priority) event batches.
TIE_ORDERS = ("fifo", "reverse")

#: Compaction floor: never compact below this many dead entries
#: (rebuilding a tiny heap would cost more than it saves).
COMPACT_FLOOR = 64

#: A calendar entry: ``(time, priority, seq, handle)``.
Entry = tuple[float, int, int, EventHandle]

_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=100.0)

    Callbacks run in (time, priority, schedule-order) order. The clock
    only moves forward; scheduling in the past or at a non-finite time
    raises :class:`ScheduleError`.

    Pending events live in one heap of ``(time, priority, seq, handle)``
    entries. An entry is *live* while its handle is not cancelled and
    its ``seq`` is the handle's current one: :meth:`reschedule` stamps
    the handle with a fresh ``seq`` and pushes a new entry, which leaves
    the old one dead. Dead entries are dropped as they surface, and the
    heap is compacted in place once they outnumber the live ones (above
    :data:`COMPACT_FLOOR`). The runs of the paper's evaluation keep a
    few dozen events pending, so no cleverer structure pays for itself.

    ``tie_order`` selects how events sharing a (time, priority) pair are
    sequenced: ``"fifo"`` (default) preserves schedule order, while
    ``"reverse"`` — the race-detector debug mode — executes each such
    *concurrent batch* in reversed schedule order. Any observable
    difference between the two orders is a tie-order race: state that
    depends on the scheduling accident of which concurrent event ran
    first.
    """

    def __init__(self, start_time: float = 0.0, *, tie_order: str = "fifo") -> None:
        if tie_order not in TIE_ORDERS:
            raise ConfigurationError(
                f"tie_order must be one of {TIE_ORDERS}, got {tie_order!r}"
            )
        if not isfinite(start_time):
            raise ConfigurationError(f"start_time must be finite, got {start_time!r}")
        #: Current simulation time in seconds. A plain attribute that
        #: only the run loops write: the server model reads it on
        #: every transition, where a property costs a call each time.
        self.now = float(start_time)
        self._heap: list[Entry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._executed = 0
        self._live = 0  # pending events: scheduled, not fired or cancelled
        self._dead = 0  # heap entries of cancelled or rescheduled events
        self._compactions = 0
        self._tie_order = tie_order
        self._tie_batches = 0  # concurrent batches (>1 event) observed
        self._tie_events = 0  # events executed inside such batches

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still in the calendar.

        O(1): a live counter maintained on schedule/cancel/pop. The
        server model reschedules its completion event on every arrival,
        so an O(heap) scan here turns monitoring ticks that report
        calendar depth into a quadratic drag on long runs.
        """
        return self._live

    def calendar_stats(self) -> dict[str, int]:
        """Calendar occupancy counters: stored entries (dead ones
        included), dead entries (the lazy-deletion debt), and the
        compaction count."""
        return {
            "stored": len(self._heap),
            "dead": self._dead,
            "compactions": self._compactions,
        }

    @property
    def tie_order(self) -> str:
        """The tie-break order this simulator runs under."""
        return self._tie_order

    @property
    def tie_batches(self) -> int:
        """Concurrent same-(time, priority) batches executed so far.

        Only counted in ``tie_order="reverse"`` mode (the batch loop is
        the only loop that materialises batches); the fast FIFO loop
        reports 0.
        """
        return self._tie_batches

    @property
    def tie_events(self) -> int:
        """Events executed inside concurrent batches (reverse mode only)."""
        return self._tie_events

    def event_cancelled(self) -> None:
        """Counter hook for :meth:`EventHandle.cancel`: lazy removal
        keeps the entry in the heap, so it turns dead here.

        Also a compaction trigger (:meth:`reschedule` is the other):
        once dead entries outnumber live ones (above a small floor),
        the heap is rebuilt, so cancel- and reschedule-heavy phases
        cannot bloat it.
        """
        self._live -= 1
        dead = self._dead + 1
        self._dead = dead
        if dead > COMPACT_FLOOR and dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop every dead entry and rebuild the heap *in place*, so a
        run loop holding the list survives a compaction triggered
        inside a callback."""
        heap = self._heap
        live: list[Entry] = []
        for entry in heap:
            handle = entry[3]
            if handle.cancelled:
                handle.done = True
            elif entry[2] == handle.seq:
                live.append(entry)
        # Entries of a reverse-mode batch in flight are out of the heap,
        # so drop only the debt of the entries removed here.
        self._dead -= len(heap) - len(live)
        heap[:] = live
        heapify(heap)
        self._compactions += 1

    def _discard(self, handle: EventHandle) -> None:
        """Account for one dead entry leaving the calendar."""
        self._dead -= 1
        if handle.cancelled:
            handle.done = True

    def _time_error(self, action: str, time: float) -> ScheduleError:
        """The error for an event time in the past or not finite."""
        if time < self.now:
            return ScheduleError(
                f"cannot {action} t={time:.6f}: clock is at t={self.now:.6f}"
            )
        return ScheduleError(f"cannot {action} non-finite t={time!r}")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_MODEL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute ``time``.

        ``priority`` orders same-timestamp events (lower runs first);
        components that *observe* model state should run at an observer
        priority so their reads do not race model mutations scheduled
        for the same instant. Returns a handle that may be cancelled
        before it fires.
        """
        if not self.now <= time < _INF:  # NaN fails both comparisons
            raise self._time_error("schedule at", time)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, owner=self, priority=priority)
        heappush(self._heap, (time, priority, seq, handle))
        self._live += 1
        return handle

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_MODEL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after a relative ``delay`` >= 0."""
        if delay < 0:
            raise ScheduleError(f"negative delay {delay!r}")
        return self.schedule(self.now + delay, callback, *args, priority=priority)

    def reschedule(self, handle: EventHandle, new_time: float) -> EventHandle:
        """Move a *pending* event to ``new_time``; returns ``handle``.

        The PS server moves its next-completion event on every arrival
        and departure. The handle is stamped with ``new_time`` and a
        fresh ``seq`` and pushed again; its old entry is dead from then
        on and is dropped when it surfaces.

        The rescheduled event is sequenced as if freshly scheduled now
        (new schedule order), exactly like a cancel+schedule pair, so
        both code patterns execute the same event sequence. Raises
        :class:`ScheduleError` for handles that are not pending (already
        fired or cancelled), foreign handles, and times in the past or
        not finite.
        """
        if handle.owner is not self:
            raise ScheduleError("cannot reschedule a foreign event handle")
        if handle.done or handle.cancelled:
            state = "cancelled" if handle.cancelled else "already-fired"
            raise ScheduleError(f"cannot reschedule {state} event {handle!r}")
        if not self.now <= new_time < _INF:
            raise self._time_error("reschedule to", new_time)
        seq = self._seq
        self._seq = seq + 1
        handle.time = new_time
        handle.seq = seq
        heappush(self._heap, (new_time, handle.priority, seq, handle))
        dead = self._dead + 1
        self._dead = dead
        if dead > COMPACT_FLOOR and dead > self._live:
            self._compact()
        return handle

    def rearm(self, handle: EventHandle, time: float) -> EventHandle:
        """Re-arm an *already-fired* handle at ``time``; returns it.

        The allocation-free fast path for periodic processes: the record
        of the tick that just fired is reused for the next tick instead
        of allocating a fresh :class:`EventHandle` every interval. The
        PS server re-arms its fired completion event for its next phase
        the same way. The re-armed event is sequenced as if freshly
        scheduled (new schedule order), so ``rearm`` is observably
        identical to ``schedule``.

        Only a fired, non-cancelled handle may be re-armed (anything
        else raises :class:`ScheduleError`, as does a time in the past
        or not finite); after re-arming, the handle is pending again and
        :meth:`EventHandle.cancel` cancels the new occurrence.
        """
        if handle.owner is not self:
            raise ScheduleError("cannot rearm a foreign event handle")
        if not handle.done or handle.cancelled:
            state = "cancelled" if handle.cancelled else "still-pending"
            raise ScheduleError(f"cannot rearm {state} event {handle!r}")
        if not self.now <= time < _INF:
            raise self._time_error("rearm at", time)
        seq = self._seq
        self._seq = seq + 1
        handle.time = time
        handle.seq = seq
        handle.done = False
        heappush(self._heap, (time, handle.priority, seq, handle))
        self._live += 1
        return handle

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Execute events until the calendar drains, ``until`` is reached,
        or ``max_events`` callbacks have run.

        When ``until`` is given the clock is advanced to exactly ``until``
        on return even if the calendar drained earlier, so periodic
        processes observe a consistent end time. ``until`` must be
        finite and ``max_events`` at least 1 (:class:`ConfigurationError`
        otherwise).
        """
        if until is not None and not isfinite(until):
            raise ConfigurationError(f"until must be finite, got {until!r}")
        if max_events is not None and max_events < 1:
            raise ConfigurationError(f"max_events must be >= 1, got {max_events!r}")
        if self._running:
            raise SimulationError("run() re-entered; the simulator is not reentrant")
        self._running = True
        self._stopped = False
        try:
            if self._tie_order == "reverse":
                self._run_permuted(until, max_events)
            else:
                self._run_fifo(until, max_events)
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def _run_fifo(self, until: float | None, max_events: int | None) -> None:
        """The hot loop: pop the head entry, drop it if dead, run it.
        (:meth:`_discard` inlined: a dead entry surfaces for nearly
        every reschedule.)"""
        budget = max_events if max_events is not None else -1
        until_v = _INF if until is None else until
        heap = self._heap
        while heap and not self._stopped:
            entry = heap[0]
            handle = entry[3]
            if handle.cancelled or entry[2] != handle.seq:
                heappop(heap)
                self._dead -= 1
                if handle.cancelled:
                    handle.done = True
                continue
            time = entry[0]
            if time > until_v:
                break
            heappop(heap)
            handle.done = True
            self._live -= 1
            self.now = time
            handle.callback(*handle.args)
            self._executed += 1
            budget -= 1
            if budget == 0:
                break

    def _live_head(self) -> Entry | None:
        """The earliest live entry, or None; dead heads are dropped."""
        heap = self._heap
        while heap:
            entry = heap[0]
            handle = entry[3]
            if not handle.cancelled and entry[2] == handle.seq:
                return entry
            heappop(heap)
            self._discard(handle)
        return None

    def _run_permuted(self, until: float | None, max_events: int | None) -> None:
        """Race-check loop: drain one concurrent batch at a time.

        A *batch* is every currently pending event sharing the head's
        (time, priority). The batch executes in reversed schedule order
        — the adversarial permutation — while events scheduled *during*
        the batch (even at the same instant) land in a later batch,
        exactly as they would run after their creators in FIFO order.
        Causal order is therefore preserved; only the arbitrary
        interleaving of concurrent events changes.
        """
        budget = max_events if max_events is not None else -1
        until_v = _INF if until is None else until
        heap = self._heap
        while not self._stopped:
            head = self._live_head()
            if head is None or head[0] > until_v:
                break
            batch_time = head[0]
            batch_priority = head[1]
            batch: list[Entry] = []
            while True:
                entry = self._live_head()
                if (
                    entry is None
                    or entry[0] != batch_time
                    or entry[1] != batch_priority
                ):
                    break
                batch.append(heappop(heap))
            if len(batch) > 1:
                self._tie_batches += 1
                self._tie_events += len(batch)
            batch.reverse()
            self.now = batch_time
            for pos, entry in enumerate(batch):
                handle = entry[3]
                if handle.cancelled or entry[2] != handle.seq:
                    # Cancelled or rescheduled by an earlier batch
                    # member after the pop: the entry is dead.
                    self._discard(handle)
                    continue
                handle.done = True
                self._live -= 1
                handle.callback(*handle.args)
                self._executed += 1
                if budget > 0:
                    budget -= 1
                if budget == 0 or self._stopped:
                    # Put the live unexecuted tail back on the heap.
                    for rest in batch[pos + 1:]:
                        if rest[3].cancelled or rest[2] != rest[3].seq:
                            self._discard(rest[3])
                        else:
                            heappush(heap, rest)
                    return

    def stop(self) -> None:
        """Request the run loop to stop after the current callback."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        # pending counts live events; stored also counts the dead
        # entries lazy deletion keeps until they surface.
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"stored={len(self._heap)}, executed={self._executed})"
        )
