"""Scheduled-event bookkeeping for the simulator."""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["EventHandle"]


class EventHandle:
    """A cancellable reference to one scheduled callback.

    Handles are returned by :meth:`repro.sim.engine.Simulator.schedule`.
    Cancellation is *lazy*: the calendar entry stays in the heap and is
    discarded when popped, which is far cheaper than heap surgery.

    ``time`` and ``seq`` are the handle's current place in the
    ``(time, priority, seq)`` order; :meth:`~repro.sim.engine.Simulator.reschedule`
    and :meth:`~repro.sim.engine.Simulator.rearm` re-stamp both. A heap
    entry whose ``seq`` is no longer the handle's is dead. ``seq`` is
    unique, so the heap never compares two handles.

    Events sharing (time, priority) are *concurrent*: no component may
    depend on their relative order, and the race-check run mode
    (``Simulator(tie_order="reverse")``) permutes exactly those.

    ``done`` marks an event the run loop has already fired (or discarded
    after cancellation); it guards the owner's live-event counter
    against cancel-after-fire and double-cancel.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled", "done",
        "owner",
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

    def cancel(self) -> None:
        """Mark this event so the run loop skips it. Idempotent, and a
        no-op once the event has fired."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner.event_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return (
            f"EventHandle(t={self.time:.6f}, p={self.priority}, {name}, {state})"
        )
