"""Shared engine workloads for the core microbenchmarks and perf smoke.

Two workloads exercise the event calendar the way big evaluation runs
do (the "million-session" shape: the *work* is near-horizon, but the
pending *population* is huge):

* :func:`chained_events` — a 1 ms event chain driven through a standing
  backlog of far-future session events. Pure dispatch throughput with a
  loaded calendar.
* :func:`calendar_churn` — the PS-server pattern: a fleet of
  "completion" events that move on (almost) every transition, again on
  top of a standing backlog. Reschedule throughput.

Both run on two engines: the current ``Simulator()`` (the two-level
wheel calendar), and :class:`LegacySimulator` — a faithful copy
of the pre-overhaul seed engine (single heap of handle objects compared
via Python ``__lt__``, lazy deletion with no compaction, cancel+re-push
as the only way to move an event). The legacy engine is the recorded
baseline the issue's events/sec speedup claims are measured against.

Everything here is deterministic: event times come from a fixed
multiplicative hash, never an RNG or the wall clock.
"""

from __future__ import annotations

import gc
import json
import time
from heapq import heappop, heappush
from typing import Any, Callable

from repro.sim.engine import Simulator

ENGINES = ("wheel", "legacy")

#: Standing population of far-future session events (the calendar load).
DEFAULT_BACKLOG = 500_000

# Knuth's multiplicative hash constant: cheap deterministic scatter so
# backlog pushes are not calendar-ordered (an ordered push stream lets
# a binary heap cheat — new elements sift zero levels).
_MIX = 2654435761


def _noop() -> None:
    return None


class _LegacyHandle:
    """The seed engine's event record (heap-ordered via Python __lt__)."""

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
        owner: "LegacySimulator",
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
        if self.cancelled or self.done:
            return
        self.cancelled = True
        self.owner._live -= 1

    def __lt__(self, other: "_LegacyHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq


class LegacySimulator:
    """The pre-overhaul event loop, preserved as a benchmark baseline.

    One binary heap of :class:`_LegacyHandle` objects; every heap
    operation runs the handle's Python ``__lt__``; cancelled entries
    stay in the heap until popped (no compaction); and the only way to
    move an event is cancel + fresh push, which is exactly what
    ``reschedule`` does here so callers can drive both engines
    through one interface.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[_LegacyHandle] = []
        self._seq = 0
        self._live = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending_events(self) -> int:
        return self._live

    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> _LegacyHandle:
        handle = _LegacyHandle(time, self._seq, callback, args, self, priority)
        self._seq += 1
        heappush(self._heap, handle)
        self._live += 1
        return handle

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> _LegacyHandle:
        return self.schedule(self._now + delay, callback, *args, priority=priority)

    def reschedule(self, handle: _LegacyHandle, new_time: float) -> _LegacyHandle:
        handle.cancel()
        return self.schedule(
            new_time, handle.callback, *handle.args, priority=handle.priority
        )

    def run(self, until: float | None = None) -> None:
        heap = self._heap
        while heap:
            head = heap[0]
            if head.cancelled:
                heappop(heap)
                head.done = True
                continue
            if until is not None and head.time > until:
                break
            heappop(heap)
            head.done = True
            self._live -= 1
            self._now = head.time
            head.callback(*head.args)
        if until is not None and self._now < until:
            self._now = until


def make_sim(engine: str) -> Simulator | LegacySimulator:
    """Build one of the benchmark engines (see :data:`ENGINES`)."""
    if engine == "legacy":
        return LegacySimulator()
    return Simulator()


def _load_backlog(
    sim: Simulator | LegacySimulator, backlog: int, start: float, span: float
) -> None:
    """Push ``backlog`` far-future no-op events scattered over ``span``."""
    for i in range(backlog):
        offset = ((i * _MIX) % backlog) / backlog  # deterministic scatter
        sim.schedule(start + offset * span, _noop)


def prepare_chained(
    engine: str,
    n_events: int = 20_000,
    backlog: int = DEFAULT_BACKLOG,
) -> Callable[[], int]:
    """Stage the chained-dispatch workload; the returned thunk runs it.

    ``n_events`` chained 0.25 ms ticks (a fine-grained monitor cadence)
    dispatch over a loaded calendar. The backlog (sessions parked
    minutes out) never fires — the run is cut at t=50 s — but every
    chained push/pop has to coexist with it, which is where the heap's
    log-factor (Python-``__lt__``) work hurts and the wheel's
    near-horizon slots do not. Each engine repeats the tick its
    idiomatic way: the wheel engine re-arms the fired handle
    (:meth:`Simulator.rearm`, the allocation-free periodic path); the
    legacy engine allocates a fresh event per tick because
    that was the only pattern it had. Calendar loading happens here,
    outside the timed thunk: it is identical setup work for every
    engine and would otherwise drown the dispatch signal being
    measured. The thunk returns the executed count (the events/sec
    numerator); a staged workload runs exactly once.
    """
    sim = make_sim(engine)
    _load_backlog(sim, backlog, start=60.0, span=600.0)
    spacing = 0.00025
    count = [0]

    if isinstance(sim, Simulator):
        rearm = sim.rearm

        def tick() -> None:
            count[0] += 1
            if count[0] < n_events:
                rearm(handle, handle.time + spacing)

        handle = sim.schedule(0.0, tick)
    else:
        schedule_after = sim.schedule_after

        def tick() -> None:
            count[0] += 1
            if count[0] < n_events:
                schedule_after(spacing, tick)

        sim.schedule(0.0, tick)

    def run() -> int:
        sim.run(until=50.0)
        assert count[0] == n_events
        return count[0]

    return run


def prepare_churn(
    engine: str,
    transitions: int = 100_000,
    fleet: int = 32,
    backlog: int = DEFAULT_BACKLOG,
) -> Callable[[], int]:
    """Stage the PS-server reschedule pattern; the returned thunk runs it.

    ``fleet`` pending "completion" events each get moved on every
    simulated transition (arrival/departure recomputes the finish
    time), on top of the standing backlog. The legacy engine pays a
    cancel + push per move, its heap grows by one dead entry per
    transition, and the run loop later pops every one of those
    tombstones back out — the lazy-deletion debt the wheel's in-bucket
    move never takes on. A driver event chain performs ``transitions``
    moves in batches between event dispatches, so moves interleave with
    real pops like in the server model. Completion offsets (a
    deterministic 5-40 ms out, always a near-horizon wheel bucket) are
    precomputed so the timed loop measures engine work, not hash
    arithmetic. The thunk returns transitions + driver dispatches (the
    events/sec numerator); a staged workload runs exactly once.
    """
    sim = make_sim(engine)
    _load_backlog(sim, backlog, start=60.0, span=600.0)
    completions = [
        sim.schedule(0.010 + (i % 7) * 0.001, _noop) for i in range(fleet)
    ]
    # (fleet index, completion offset) per move, built ahead of time so
    # the timed loop is as close to pure reschedule calls as possible.
    plan = [
        (k % fleet, 0.005 + 0.035 * ((k * _MIX) % 1000) / 1000.0)
        for k in range(transitions)
    ]
    moved = [0]
    dispatched = [0]
    batch = 100  # moves per driver dispatch

    def drive() -> None:
        dispatched[0] += 1
        reschedule = sim.reschedule
        comps = completions
        now = sim.now
        m = moved[0]
        stop = min(m + batch, transitions)
        for i, off in plan[m:stop]:
            comps[i] = reschedule(comps[i], now + off)
        moved[0] = stop
        if stop < transitions:
            sim.schedule_after(0.001, drive)

    sim.schedule(0.0, drive)

    def run() -> int:
        sim.run(until=50.0)
        assert moved[0] == transitions
        return transitions + dispatched[0]

    return run


WORKLOADS: dict[str, Callable[[str], Callable[[], int]]] = {
    "chained": prepare_chained,
    "churn": prepare_churn,
}


# ----------------------------------------------------------------------
# Baseline recording and machine normalisation
# ----------------------------------------------------------------------
def spin_score(loops: int = 200_000, rounds: int = 3) -> float:
    """Pure-Python ops/sec score of the host (best of ``rounds``).

    A fixed busy loop whose cost tracks the interpreter + machine speed
    the event engines run on. Recorded next to the events/sec baseline
    so the perf smoke can normalise a measurement taken on a different
    (or merely busier) machine before comparing against the baseline.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        x = 0
        for i in range(loops):
            x += i & 7
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return loops / best


def measure_rates(
    engines: tuple[str, ...] = ENGINES,
    rounds: int = 3,
) -> dict[str, dict[str, float | int]]:
    """Best-of-``rounds`` events/sec for each workload × engine.

    Rounds are interleaved across engines (engine A round 1, engine B
    round 1, ... then round 2) so a transient machine-load spike hits
    every engine rather than biasing one, and the garbage collector is
    flushed before each timed thunk.
    """
    out: dict[str, dict[str, float | int]] = {}
    for name, prep in WORKLOADS.items():
        best: dict[str, float] = {}
        events: dict[str, int] = {}
        for _ in range(rounds):
            for engine in engines:
                run = prep(engine)
                gc.collect()
                t0 = time.perf_counter()
                n = run()
                dt = time.perf_counter() - t0
                events[engine] = n
                if engine not in best or dt < best[engine]:
                    best[engine] = dt
        out[name] = {
            "events": events[engines[0]],
            **{f"rate_{e}": events[e] / best[e] for e in engines},
        }
    return out


def build_payload(
    measured: dict[str, dict[str, float | int]], spin: float
) -> dict[str, Any]:
    """Assemble the ``BENCH_core.json`` schema from measured rates."""
    workloads: dict[str, Any] = {}
    for name, row in measured.items():
        rates = {
            key.removeprefix("rate_"): round(float(value), 1)
            for key, value in row.items()
            if key.startswith("rate_")
        }
        entry: dict[str, Any] = {"events": row["events"], "rates": rates}
        if "wheel" in rates and "legacy" in rates:
            entry["speedup_wheel_vs_legacy"] = round(
                rates["wheel"] / rates["legacy"], 2
            )
        workloads[name] = entry
    return {"schema": 1, "spin_score": round(spin, 1), "workloads": workloads}


def record_baseline(path: str, rounds: int = 3) -> dict[str, Any]:
    """Measure every engine and write the baseline JSON to ``path``."""
    payload = build_payload(measure_rates(rounds=rounds), spin_score())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
