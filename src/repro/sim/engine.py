"""The simulator clock and run loop."""

from __future__ import annotations

from heapq import heappop
from sys import maxsize
from typing import Any, Callable

from repro.errors import ConfigurationError, ScheduleError, SimulationError
from repro.sim.calendar import COMPACT_FLOOR, WheelCalendar
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

_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=100.0)

    Callbacks run in (time, priority, schedule-order) order. The clock
    only moves forward; scheduling in the past raises
    :class:`ScheduleError`.

    Pending events live in a two-level slotted calendar
    (:class:`~repro.sim.calendar.WheelCalendar`) tuned for dense
    periodic traffic and the server model's reschedule churn;
    ``wheel_slot`` and ``wheel_slots`` set its slot width and ring size.
    It executes the *exact* event sequence a single lazy-deletion heap
    would for the same schedule/cancel/reschedule calls.

    ``tie_order`` selects how events sharing a (time, priority) pair are
    sequenced: ``"fifo"`` (default) preserves schedule order, while
    ``"reverse"`` — the race-detector debug mode — executes each such
    *concurrent batch* in reversed schedule order. Any observable
    difference between the two orders is a tie-order race: state that
    depends on the scheduling accident of which concurrent event ran
    first.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        *,
        tie_order: str = "fifo",
        wheel_slot: float = 0.002,
        wheel_slots: int = 4096,
    ) -> None:
        if tie_order not in TIE_ORDERS:
            raise ConfigurationError(
                f"tie_order must be one of {TIE_ORDERS}, got {tie_order!r}"
            )
        #: Current simulation time in seconds. A plain attribute that
        #: only the run loops write: the server model reads it on
        #: every transition, where a property costs a call each time.
        self.now = float(start_time)
        self._cal = WheelCalendar(slot_width=wheel_slot, nslots=wheel_slots)
        self._cal.cursor = self._cal.slot_of(self.now)
        self._seq = 0
        self._running = False
        self._stopped = False
        self._executed = 0
        self._live = 0  # non-cancelled events still in the calendar
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
        server model cancels and reschedules completion events on every
        arrival, so an O(heap) scan here turns monitoring ticks that
        report calendar depth into a quadratic drag on long runs.
        """
        return self._live

    def calendar_stats(self) -> dict[str, int]:
        """Calendar occupancy counters: stored entries, the
        active/bucket/overflow split, lazy-deletion debt (``dead``), and
        compaction count."""
        return self._cal.stats()

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
        """Counter hook for :meth:`EventHandle.cancel` (lazy removal
        keeps the entry in the calendar, so the count must drop here).

        Also the compaction trigger: once cancelled entries outnumber
        live ones (above a small floor), the calendar is rebuilt in
        place, so cancel-heavy phases cannot bloat it quadratically.
        """
        self._live -= 1
        cal = self._cal
        cal.dead += 1
        if cal.dead > COMPACT_FLOOR and cal.dead > self._live:
            cal.compact()

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
        if time < self.now:
            raise ScheduleError(
                f"cannot schedule at t={time:.6f}: clock is at t={self.now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, owner=self, priority=priority)
        self._cal.push(handle)
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
        """Move a *pending* event to ``new_time``; returns its live handle.

        The churn-free fast path for the cancel-and-repush pattern: the
        PS server moves its next-completion event on every arrival and
        departure, and a cancel+schedule pair leaves a dead entry behind
        each time. When the entry sits in a wheel bucket it is moved in
        place (no tombstone, no allocation — the returned handle *is*
        ``handle``); otherwise the old entry is tombstoned and a fresh
        handle returned. Callers must keep the returned handle.

        The rescheduled event is sequenced as if freshly scheduled now
        (new schedule order), exactly like the cancel+schedule pair it
        replaces — so both code patterns execute the same event
        sequence. Raises :class:`ScheduleError` for handles
        that are not pending (already fired or cancelled), foreign
        handles, and times in the past.
        """
        if handle.owner is not self:
            raise ScheduleError("cannot reschedule a foreign event handle")
        if handle.done or handle.cancelled:
            state = "cancelled" if handle.cancelled else "already-fired"
            raise ScheduleError(f"cannot reschedule {state} event {handle!r}")
        if new_time < self.now:
            raise ScheduleError(
                f"cannot reschedule to t={new_time:.6f}: "
                f"clock is at t={self.now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        if self._cal.move(handle, new_time, seq):
            return handle
        # Tombstone path: the entry sits in the active or overflow heap,
        # where in-place relocation is not possible. Identical cost and semantics to
        # the legacy cancel+schedule pair (one dead entry, compacted
        # away once the debt exceeds the live count).
        fresh = EventHandle(
            new_time, seq, handle.callback, handle.args,
            owner=self, priority=handle.priority,
        )
        handle.cancel()
        self._cal.push(fresh)
        self._live += 1
        return fresh

    def rearm(self, handle: EventHandle, time: float) -> EventHandle:
        """Re-arm an *already-fired* handle at ``time``; returns it.

        The allocation-free fast path for periodic processes: the record
        of the tick that just fired is reused for the next tick instead
        of allocating a fresh :class:`EventHandle` every interval —
        dense periodic traffic (warehouse ticks, 50 ms fine monitors)
        stops churning the allocator. The PS server re-arms its fired
        completion event for its next phase the same way. The re-armed
        event is sequenced as if freshly scheduled (new schedule order),
        so ``rearm`` is observably identical to ``schedule``.

        Only a fired, non-cancelled handle may be re-armed (anything
        else raises :class:`ScheduleError`); after re-arming, the handle
        is pending again and :meth:`EventHandle.cancel` cancels the new
        occurrence.
        """
        if handle.owner is not self:
            raise ScheduleError("cannot rearm a foreign event handle")
        if not handle.done or handle.cancelled:
            state = "cancelled" if handle.cancelled else "still-pending"
            raise ScheduleError(f"cannot rearm {state} event {handle!r}")
        if time < self.now:
            raise ScheduleError(
                f"cannot rearm at t={time:.6f}: clock is at t={self.now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle.time = time
        handle.seq = seq
        handle.done = False
        self._cal.push(handle)
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
        processes observe a consistent end time. ``max_events`` must be
        at least 1 (:class:`ConfigurationError` otherwise).
        """
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
                self._run_fifo_wheel(self._cal, until, max_events)
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def _run_fifo_wheel(
        self, cal: WheelCalendar, until: float | None, max_events: int | None
    ) -> None:
        """The wheel hot loop: drain the active slot heap, advance the
        cursor to the next populated slot when it empties."""
        budget = max_events if max_events is not None else -1
        until_v = _INF if until is None else until
        limit_idx = maxsize if until is None else cal.slot_of(until)
        # Safe to hoist: the active heap is only ever mutated in place
        # (advance/_load_slot append into it, compact slice-assigns).
        cur = cal.cur
        advance = cal.advance
        while not self._stopped:
            if not cur:
                if not advance(limit_idx):
                    break
                continue
            entry = cur[0]
            handle = entry[3]
            if handle.cancelled:
                heappop(cur)
                handle.done = True
                cal.dead -= 1
                continue
            time = entry[0]
            if time > until_v:
                break
            heappop(cur)
            handle.done = True
            self._live -= 1
            self.now = time
            handle.callback(*handle.args)
            self._executed += 1
            budget -= 1
            if budget == 0:
                break

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
        cal = self._cal
        limit_idx = maxsize if until is None else cal.slot_of(until)
        while not self._stopped:
            head = cal.peek(limit_idx)
            if head is None:
                break
            batch_time = head[0]
            if batch_time > until_v:
                break
            batch_priority = head[1]
            batch: list[EventHandle] = []
            while True:
                entry = cal.peek(limit_idx)
                if (
                    entry is None
                    or entry[0] != batch_time
                    or entry[1] != batch_priority
                ):
                    break
                cal.pop()
                batch.append(entry[3])
            if len(batch) > 1:
                self._tie_batches += 1
                self._tie_events += len(batch)
            batch.reverse()
            self.now = batch_time
            for pos, handle in enumerate(batch):
                if handle.cancelled:
                    # Cancelled by an earlier batch member after the pop;
                    # cancel() already dropped the live counter.
                    handle.done = True
                    cal.dead -= 1
                    continue
                handle.done = True
                self._live -= 1
                handle.callback(*handle.args)
                self._executed += 1
                if budget > 0:
                    budget -= 1
                if budget == 0 or self._stopped:
                    # Put the unexecuted tail back on the calendar.
                    for rest in batch[pos + 1:]:
                        if not rest.cancelled:
                            cal.push(rest)
                        else:
                            rest.done = True
                            cal.dead -= 1
                    return

    def stop(self) -> None:
        """Request the run loop to stop after the current callback."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        # pending counts live events; stored also counts the cancelled
        # entries lazy deletion keeps until they surface.
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"stored={len(self._cal)}, executed={self._executed})"
        )
