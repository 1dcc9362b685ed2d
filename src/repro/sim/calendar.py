"""The event calendar: the data structure behind the simulator clock.

The simulator executes events in strict ``(time, priority, seq)`` order.
*How* the pending set is stored is a pure performance decision, so it is
factored out of :class:`~repro.sim.engine.Simulator` into
:class:`WheelCalendar` — a two-level slotted calendar: a near-horizon
timing wheel of fixed-width slots for the dense periodic traffic
(warehouse ticks, 50 ms fine monitors, PS completions) backed by an
overflow heap for far-future events. Future-slot buckets are plain
unsorted lists, which makes the server model's cancel/reschedule
pattern a cheap *move* instead of a tombstone-and-repush.

Heap tiers store ``(time, priority, seq, handle)`` tuples rather than
bare :class:`~repro.sim.event.EventHandle` objects: ``heapq`` then
compares tuples entirely in C (``seq`` is unique, so the handle itself
is never compared), which removes every Python-level ``__lt__`` call
from the hot loop. Wheel *buckets*, by contrast, store bare handles —
a bucket is unsorted, so the tuple's comparability buys nothing there,
and a handle already carries ``(time, priority, seq)``. The tuple is
built exactly once per executed event, when its slot is loaded into the
active heap; a bucket insert or bucket-to-bucket move allocates
nothing.

The calendar uses **lazy deletion** — :meth:`EventHandle.cancel` marks
the handle and the entry is dropped when encountered — plus **amortised
compaction**: when cancelled entries outnumber live ones (and exceed a
small floor), the owning simulator calls :meth:`compact` to rebuild the
structures in place, so a cancel-heavy phase can no longer bloat the
calendar quadratically.

Execution order is exactly that of a single lazy-deletion heap by
construction: the wheel's slot index ``floor(time / slot_width)`` is
monotone in ``time``, slots are drained in index order, and each active
slot is a real heap over the full ``(time, priority, seq)`` key. The
test suite pins this against a reference heap event loop
(``tests/sim/heap_oracle.py``) with a property-based fuzz.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import floor
from sys import maxsize

from repro.sim.event import EventHandle

__all__ = ["Entry", "WheelCalendar"]

#: A calendar entry: ``(time, priority, seq, handle)``.
Entry = tuple[float, int, int, EventHandle]

#: Compaction floor: never compact below this many cancelled entries
#: (rebuilds on tiny calendars would cost more than they save).
COMPACT_FLOOR = 64

#: Handle ``slot`` sentinel: stored in the active slot heap.
SLOT_ACTIVE = -1
#: Handle ``slot`` sentinel: stored in the overflow heap.
SLOT_OVERFLOW = -2


class WheelCalendar:
    """A slotted two-level calendar: timing wheel + overflow heap.

    Layout
    ------
    Absolute slot index of an event is ``floor(time / slot_width)``; the
    wheel covers the ``nslots`` indices after the cursor (the *horizon*,
    ``nslots * slot_width`` seconds), one unsorted bucket each, addressed
    ``index % nslots``. Because an event is only ever inserted within
    one horizon of the cursor, a bucket never mixes revolutions.

    Three storage classes, by slot index relative to the cursor:

    * ``index <= cursor`` — the **active heap** ``cur``: a real heap over
      the full entry key holding everything due in the slot currently
      being drained (including same-instant follow-ups scheduled by
      running callbacks).
    * ``cursor < index < cursor + nslots`` — a **bucket**: an unsorted
      list, appended in O(1), heapified wholesale when the cursor
      reaches it.
    * ``index >= cursor + nslots`` — the **overflow heap**: far-future
      events, migrated into the active heap as the cursor reaches their
      slot.

    The cursor only moves forward, and only to the next slot holding
    work (one jump when the wheel is empty, a bounded scan otherwise),
    clamped to the run loop's ``until`` slot so a time-limited run never
    drags the cursor past events that were not executed.

    Rescheduling an entry that sits in a *bucket* — the common case for
    the PS server's completion event, which moves on every arrival and
    departure — is a plain ``list`` removal plus a re-push: no tombstone,
    no heap surgery, no allocation. Entries in either heap fall back to
    the tombstone path in :meth:`~repro.sim.engine.Simulator.reschedule`.
    """

    __slots__ = (
        "slot_width", "inv_width", "nslots", "buckets", "cur", "overflow",
        "cursor", "wheel_count", "dead", "compactions",
    )

    def __init__(self, slot_width: float = 0.002, nslots: int = 4096) -> None:
        if slot_width <= 0.0:
            raise ValueError(f"slot_width must be > 0, got {slot_width!r}")
        if nslots < 2:
            raise ValueError(f"nslots must be >= 2, got {nslots!r}")
        #: Width of one slot in simulated seconds.
        self.slot_width = float(slot_width)
        #: Precomputed ``1 / slot_width`` (multiply beats divide).
        self.inv_width = 1.0 / float(slot_width)
        #: Number of wheel slots (horizon = ``nslots * slot_width``).
        self.nslots = int(nslots)
        #: Ring of unsorted future buckets, addressed ``index % nslots``.
        #: Buckets hold bare handles; heap tuples are built at slot load.
        self.buckets: list[list[EventHandle]] = [[] for _ in range(self.nslots)]
        #: Active slot: a heap of everything due at/before the cursor.
        self.cur: list[Entry] = []
        #: Far-future events beyond the wheel horizon.
        self.overflow: list[Entry] = []
        #: Absolute index of the slot currently being drained.
        self.cursor = 0
        #: Entries stored in buckets (neither active nor overflow).
        self.wheel_count = 0
        #: Cancelled entries still stored anywhere (lazy deletion debt).
        self.dead = 0
        #: Number of compaction rebuilds performed.
        self.compactions = 0

    def __len__(self) -> int:
        """Stored entries, including cancelled ones awaiting discard."""
        return len(self.cur) + self.wheel_count + len(self.overflow)

    # ------------------------------------------------------------------
    def slot_of(self, time: float) -> int:
        """Absolute slot index of an event time."""
        # floor, not int(): a negative start_time must round down.
        return floor(time * self.inv_width)

    # ------------------------------------------------------------------
    def push(self, handle: EventHandle) -> None:
        """Insert one pending handle into the tier its slot selects."""
        time = handle.time
        idx = floor(time * self.inv_width)
        cursor = self.cursor
        if idx <= cursor:
            heappush(self.cur, (time, handle.priority, handle.seq, handle))
            handle.slot = SLOT_ACTIVE
        elif idx - cursor < self.nslots:
            bucket = self.buckets[idx % self.nslots]
            handle.slot = idx
            handle.pos = len(bucket)
            bucket.append(handle)
            self.wheel_count += 1
        else:
            heappush(self.overflow, (time, handle.priority, handle.seq, handle))
            handle.slot = SLOT_OVERFLOW

    def move(self, handle: EventHandle, new_time: float, seq: int) -> bool:
        """Relocate a *bucket-resident* handle in place.

        Returns True on success — the handle object itself was moved to
        ``(new_time, seq)`` and remains valid. Returns False when the
        entry lives in the active or overflow heap (where relocation
        would mean heap surgery); the caller then tombstones instead.

        The common case — bucket to bucket, a PS completion sliding
        within the near horizon — is an O(1) swap-remove plus an
        append: no tombstone, no heap surgery, no allocation, no scan.
        Bucket-internal order is free to change because a slot is
        heapified over the full unique ``(time, priority, seq)`` key
        when loaded, so execution order never depends on it.
        """
        idx = handle.slot
        cursor = self.cursor
        if idx <= cursor:
            # Active heap (SLOT_ACTIVE), overflow (SLOT_OVERFLOW), or a
            # bucket the cursor has reached and will drain as a heap.
            return False
        buckets = self.buckets
        nslots = self.nslots
        bucket = buckets[idx % nslots]
        pos = handle.pos
        stale = pos >= len(bucket) or bucket[pos] is not handle
        if stale:  # pragma: no cover - defensive, implies bookkeeping bug
            return False
        last = bucket[-1]
        bucket[pos] = last
        last.pos = pos
        bucket.pop()
        handle.time = new_time
        handle.seq = seq
        new_idx = floor(new_time * self.inv_width)
        if new_idx <= cursor:
            heappush(self.cur, (new_time, handle.priority, seq, handle))
            handle.slot = SLOT_ACTIVE
            self.wheel_count -= 1
        elif new_idx - cursor < nslots:
            target = buckets[new_idx % nslots]
            handle.slot = new_idx
            handle.pos = len(target)
            target.append(handle)
        else:
            heappush(self.overflow, (new_time, handle.priority, seq, handle))
            handle.slot = SLOT_OVERFLOW
            self.wheel_count -= 1
        return True

    # ------------------------------------------------------------------
    def advance(self, limit_idx: int) -> bool:
        """Move the cursor to the next slot holding work and load it.

        Called when the active heap is drained. Returns True when a new
        active slot was loaded; False when no event exists at or before
        ``limit_idx`` (the run loop's ``until`` slot — the cursor is
        then parked at ``limit_idx`` so it never overshoots events that
        were cut off by the time limit).
        """
        overflow = self.overflow
        # Discard cancelled overflow heads so the jump target is real.
        while overflow and overflow[0][3].cancelled:
            entry = heappop(overflow)
            entry[3].done = True
            self.dead -= 1
        if self.wheel_count == 0:
            if not overflow:
                if limit_idx > self.cursor:
                    self.cursor = limit_idx
                return False
            target = floor(overflow[0][0] * self.inv_width)
            if target > limit_idx:
                if limit_idx > self.cursor:
                    self.cursor = limit_idx
                return False
            if target > self.cursor:
                self.cursor = target
        else:
            buckets = self.buckets
            nslots = self.nslots
            over_idx = (
                floor(overflow[0][0] * self.inv_width)
                if overflow
                else maxsize
            )
            cursor = self.cursor
            while True:
                cursor += 1
                if cursor > limit_idx:
                    self.cursor = max(self.cursor, limit_idx)
                    return False
                if over_idx <= cursor or buckets[cursor % nslots]:
                    break
            self.cursor = cursor
        self._load_slot()
        return True

    def _load_slot(self) -> None:
        """Build the active heap for the cursor's slot: the slot bucket
        plus any overflow entries whose slot the cursor has reached."""
        cursor = self.cursor
        bucket = self.buckets[cursor % self.nslots]
        self.wheel_count -= len(bucket)
        cur = self.cur
        for handle in bucket:
            if handle.cancelled:
                handle.done = True
                self.dead -= 1
            else:
                cur.append((handle.time, handle.priority, handle.seq, handle))
        bucket.clear()  # reuse the ring's list allocation
        if len(cur) > 1:
            heapify(cur)
        overflow = self.overflow
        inv = self.inv_width
        while overflow and floor(overflow[0][0] * inv) <= cursor:
            entry = heappop(overflow)
            handle = entry[3]
            if handle.cancelled:
                handle.done = True
                self.dead -= 1
            else:
                heappush(cur, entry)

    # ------------------------------------------------------------------
    def peek(self, limit_idx: int) -> Entry | None:
        """The earliest live entry at or before ``limit_idx``, or None.

        Advances the cursor as needed; cancelled entries encountered on
        the way are discarded.
        """
        while True:
            cur = self.cur
            while cur:
                head = cur[0]
                handle = head[3]
                if handle.cancelled:
                    heappop(cur)
                    handle.done = True
                    self.dead -= 1
                    continue
                return head
            if not self.advance(limit_idx):
                return None

    def pop(self) -> Entry:
        """Remove and return the head entry (call :meth:`peek` first)."""
        return heappop(self.cur)

    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Drop every cancelled entry; rebuild the heaps in place."""
        live: list[Entry] = []
        for entry in self.cur:
            if entry[3].cancelled:
                entry[3].done = True
            else:
                live.append(entry)
        self.cur[:] = live
        heapify(self.cur)
        over: list[Entry] = []
        for entry in self.overflow:
            if entry[3].cancelled:
                entry[3].done = True
            else:
                over.append(entry)
        self.overflow[:] = over
        heapify(self.overflow)
        count = 0
        for bucket in self.buckets:
            if not bucket:
                continue
            kept = [handle for handle in bucket if not handle.cancelled]
            if len(kept) != len(bucket):
                for handle in bucket:
                    if handle.cancelled:
                        handle.done = True
                bucket[:] = kept
                for pos, handle in enumerate(bucket):
                    handle.pos = pos
            count += len(kept)
        self.wheel_count = count
        self.dead = 0
        self.compactions += 1

    def stats(self) -> dict[str, int]:
        """Occupancy counters (debugging / benchmarks)."""
        return {
            "stored": len(self),
            "active": len(self.cur),
            "wheel": self.wheel_count,
            "overflow": len(self.overflow),
            "dead": self.dead,
            "compactions": self.compactions,
        }

