"""Scheduled-event bookkeeping for the simulator."""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["EventHandle"]


class EventHandle:
    """A cancellable reference to one scheduled callback.

    Handles are returned by :meth:`repro.sim.engine.Simulator.schedule`.
    Cancellation is *lazy*: the calendar entry stays in the heap and is
    discarded when popped, which is far cheaper than heap surgery — the
    n-tier server model cancels and reschedules its next-completion event
    on every arrival/departure.

    ``done`` marks an event the run loop has already fired (or discarded
    after cancellation); it guards the owner's live-event counter
    against cancel-after-fire and double-cancel.

    ``slot`` and ``pos`` are calendar bookkeeping (see
    :mod:`repro.sim.calendar`): ``slot`` is the absolute wheel-slot
    index while the entry sits in a wheel bucket, or a negative sentinel
    (active heap / overflow heap); ``pos`` is the
    handle's position inside that bucket. Together they make the
    ``reschedule`` in-place move O(1) — the calendar jumps straight to
    the entry, swap-removes it, and appends it to its new bucket.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled", "done",
        "owner", "slot", "pos",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        owner: Any = None,
        priority: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = False
        self.owner = owner
        self.slot = -1
        self.pos = 0

    def cancel(self) -> None:
        """Mark this event so the run loop skips it. Idempotent, and a
        no-op once the event has fired."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner.event_cancelled()

    # Heap ordering: by time, then priority (mutators before observers),
    # then schedule order — so the simulation is fully deterministic.
    # Events sharing (time, priority) are *concurrent*: no component may
    # depend on their relative order, and the race-check run mode
    # (``Simulator(tie_order="reverse")``) permutes exactly those.
    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return (
            f"EventHandle(t={self.time:.6f}, p={self.priority}, {name}, {state})"
        )
