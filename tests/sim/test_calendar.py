"""Tests for the two-level wheel calendar, and a property-based fuzz
pinning its execution order to a reference single-heap event loop."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.calendar import SLOT_ACTIVE, SLOT_OVERFLOW, WheelCalendar
from repro.sim.engine import (
    PRIORITY_CONTROLLER,
    PRIORITY_MODEL,
    PRIORITY_WAREHOUSE,
    Simulator,
)
from tests.sim.heap_oracle import HeapSimulator


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_wheel_invalid_slot_width_raises(bad):
    with pytest.raises(ValueError, match="slot_width"):
        WheelCalendar(slot_width=bad)


def test_wheel_invalid_nslots_raises():
    with pytest.raises(ValueError, match="nslots"):
        WheelCalendar(nslots=1)


# ----------------------------------------------------------------------
# wheel tier routing (exercised through the owning simulator)
# ----------------------------------------------------------------------

def _wheel_sim(slot=0.5, nslots=8):
    return Simulator(wheel_slot=slot, wheel_slots=nslots)


def _noop():
    return None


def test_push_routes_by_slot_distance():
    sim = _wheel_sim()  # horizon = 8 * 0.5 s = 4 s
    cal = sim._cal
    near = sim.schedule(1.2, _noop)     # slot 2: in the wheel
    far = sim.schedule(100.0, _noop)    # slot 200: beyond the horizon
    now = sim.schedule(0.0, _noop)      # slot 0 = cursor: active heap
    assert near.slot == 2
    assert far.slot == SLOT_OVERFLOW
    assert now.slot == SLOT_ACTIVE
    assert cal.wheel_count == 1
    assert len(cal.overflow) == 1
    assert len(cal) == 3


def test_bucket_position_tracks_swap_remove():
    sim = _wheel_sim()
    a = sim.schedule(1.2, _noop)
    b = sim.schedule(1.3, _noop)
    c = sim.schedule(1.4, _noop)
    assert [a.pos, b.pos, c.pos] == [0, 1, 2]
    # Moving `a` out swap-removes it: `c` takes its position.
    moved = sim.reschedule(a, 2.2)
    assert moved is a  # in-place move, same handle object
    assert a.slot == 4
    assert c.pos == 0 and b.pos == 1


def test_move_declined_for_active_and_overflow_entries():
    sim = _wheel_sim()
    cal = sim._cal
    active = sim.schedule(0.1, _noop)   # cursor slot -> active heap
    far = sim.schedule(100.0, _noop)    # overflow
    assert cal.move(active, 0.2, 999) is False
    assert cal.move(far, 101.0, 999) is False


def test_reschedule_tombstones_heap_entries():
    sim = _wheel_sim()
    far = sim.schedule(100.0, _noop)
    fresh = sim.reschedule(far, 101.0)
    assert fresh is not far       # tombstone path: new handle
    assert far.cancelled
    assert not fresh.cancelled
    seen = []
    sim.schedule(0.5, seen.append, "early")
    sim.run(until=200.0)
    assert seen == ["early"]
    assert fresh.done


def test_wheel_horizon_rollover_reuses_ring_slots():
    """Events more than one revolution apart share ``index % nslots``
    but must never fire out of order: the far one waits in overflow
    until the cursor reaches its revolution."""
    sim = _wheel_sim(slot=0.5, nslots=8)  # horizon 4 s
    seen = []
    # Slot 2 and slot 10 map to the same ring position (2 % 8 == 10 % 8).
    sim.schedule(5.2, seen.append, "second-rev")
    sim.schedule(1.2, seen.append, "first-rev")
    sim.run()
    assert seen == ["first-rev", "second-rev"]


def test_overflow_migrates_into_wheel_as_cursor_advances():
    sim = _wheel_sim(slot=0.5, nslots=8)
    cal = sim._cal
    order = []
    for t in (3.9, 4.1, 7.9, 12.3, 0.2):
        sim.schedule(t, order.append, t)
    assert len(cal.overflow) == 3  # 4.1, 7.9, 12.3 are beyond the horizon
    sim.run()
    assert order == [0.2, 3.9, 4.1, 7.9, 12.3]
    assert len(cal) == 0


def test_until_parks_cursor_without_skipping_events():
    """A time-limited run must not drag the cursor past events that
    were cut off by ``until``; they fire on the next run()."""
    sim = _wheel_sim(slot=0.5, nslots=8)
    seen = []
    sim.schedule(6.0, seen.append, "late")
    sim.run(until=2.0)
    assert seen == [] and sim.now == 2.0
    sim.schedule(2.5, seen.append, "mid")  # scheduled after the pause
    sim.run()
    assert seen == ["mid", "late"]


def test_cancelled_overflow_heads_are_discarded_on_advance():
    sim = _wheel_sim(slot=0.5, nslots=8)
    cal = sim._cal
    doomed = sim.schedule(50.0, _noop)
    sim.schedule(60.0, _noop)
    doomed.cancel()
    assert cal.dead == 1
    sim.run()
    assert cal.dead == 0
    assert doomed.done


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------

# Where the cancelled entries are stored: past the default 8.192 s
# horizon they sit in the overflow heap, inside it in wheel buckets.
_TIER_START = {"heap": 10.0, "wheel": 1.0}
_TIER_STAT = {"heap": "overflow", "wheel": "wheel"}


@pytest.mark.parametrize("tier", ["heap", "wheel"])
def test_compaction_triggers_when_dead_exceed_live(tier):
    sim = Simulator()
    start = _TIER_START[tier]
    handles = [sim.schedule(start + i * 0.001, _noop) for i in range(200)]
    assert sim.calendar_stats()[_TIER_STAT[tier]] == 200
    survivors = handles[:10]
    for h in handles[10:]:
        h.cancel()
    stats = sim.calendar_stats()
    assert stats["compactions"] >= 1
    assert stats[_TIER_STAT[tier]] < 200
    assert stats["dead"] < 190  # the debt was actually dropped
    sim.run()
    assert all(h.done for h in survivors)
    assert sim.events_executed == 10


def test_wheel_compaction_rebuilds_bucket_positions():
    sim = _wheel_sim(slot=0.5, nslots=8)
    cal = sim._cal
    keep = [sim.schedule(1.2, _noop) for _ in range(3)]
    doomed = [sim.schedule(1.3, _noop) for _ in range(6)]
    for h in doomed:
        h.cancel()
    cal.compact()
    assert cal.dead == 0 and cal.wheel_count == 3
    bucket = cal.buckets[2 % cal.nslots]
    assert [h.pos for h in bucket] == list(range(len(bucket)))
    # Positions must still support the O(1) move after the rebuild.
    fresh = sim.reschedule(keep[0], 2.2)
    assert fresh is keep[0]


def test_compaction_during_run_keeps_loop_alive():
    """A compaction triggered by a callback's cancels must not strand
    the run loop: the active heap is rebuilt in place."""
    sim = Simulator()
    seen = []
    victims = [sim.schedule(5.0 + i * 1e-4, _noop) for i in range(300)]

    def massacre():
        for v in victims:
            v.cancel()
        seen.append("massacre")

    sim.schedule(1.0, massacre)
    sim.schedule(6.0, seen.append, "after")
    sim.run()
    assert seen == ["massacre", "after"]
    assert sim.calendar_stats()["compactions"] >= 1
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# property: the wheel executes exactly the reference heap loop's sequence
# ----------------------------------------------------------------------

_PRIORITIES = (PRIORITY_MODEL, PRIORITY_WAREHOUSE, PRIORITY_CONTROLLER)
# Absolute event times in ms (clamped to the clock once a paused run has
# moved it): fine-grained, plus a coarse grid that makes same-instant
# collisions — and so priority/seq tie-breaks — common.
_ms = st.one_of(
    st.sampled_from([0, 250, 500, 1000, 3000]),
    st.integers(min_value=0, max_value=4000),
)
_target = st.integers(min_value=0, max_value=3)
_schedule = st.tuples(st.just("schedule"), _ms, st.sampled_from(_PRIORITIES))
_mutate = st.tuples(
    st.sampled_from(["cancel", "reschedule", "rearm"]), _ms, _target
)
# Paused runs: the clock stops mid-program (at a time, or after a few
# events) and the rest of the program schedules against it.
_pause = st.tuples(st.sampled_from(["run_until", "run_max"]), _ms, st.just(0))
_ops = st.lists(
    st.one_of(_schedule, _schedule, _mutate, _mutate, _pause),
    min_size=8,
    max_size=60,
)


def _execute_program(sim, program):
    """Drive a schedule/cancel/reschedule/rearm/run program through
    ``sim``; return the fired-event trace."""
    trace = []
    handles = []

    def fire(tag):
        trace.append((round(sim.now, 6), tag))

    for step, (op, arg, target) in enumerate(program):
        time = max(sim.now, arg / 1000.0)
        if op in ("run_until", "run_max"):
            if op == "run_until":
                sim.run(until=time)
            else:
                sim.run(max_events=1 + arg % 8)
            trace.append(("paused", round(sim.now, 6), sim.pending_events))
        elif op == "schedule" or not handles:
            priority = target if op == "schedule" else PRIORITY_MODEL
            handles.append(sim.schedule(time, fire, step, priority=priority))
        else:
            idx = target % len(handles)
            h = handles[idx]
            if op == "cancel":
                h.cancel()
            elif op == "reschedule" and not (h.done or h.cancelled):
                handles[idx] = sim.reschedule(h, time)
            elif op == "rearm" and h.done and not h.cancelled:
                sim.rearm(h, time)
    sim.run()
    trace.append(("executed", sim.events_executed))
    return trace


@settings(max_examples=120, deadline=None)
@given(program=_ops)
# Ties the random programs rarely hit: an in-place bucket move and a
# rearm must both sequence as fresh schedules (after a resident event
# at the same instant and priority).
@example(program=[("schedule", 500, 0), ("schedule", 250, 0),
                  ("reschedule", 250, 0)])
@example(program=[("schedule", 250, 0), ("schedule", 500, 0),
                  ("run_until", 300, 0), ("rearm", 500, 0)])
def test_heap_and_wheel_execute_identically(program):
    # ~2 s wheel horizon, so the program crosses it constantly.
    wheel = Simulator(wheel_slot=0.016, wheel_slots=128)
    assert _execute_program(wheel, program) == _execute_program(
        HeapSimulator(), program
    )
