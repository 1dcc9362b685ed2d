"""Tests for the simulator's event heap — the liveness rule, lazy
deletion and compaction — and a property-based fuzz pinning its
execution order to a reference single-heap event loop."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    PRIORITY_CONTROLLER,
    PRIORITY_MODEL,
    PRIORITY_WAREHOUSE,
    Simulator,
)
from tests.sim.heap_oracle import HeapSimulator


def _noop():
    return None


# ----------------------------------------------------------------------
# lazy deletion: reschedule re-stamps, cancelled heads are dropped
# ----------------------------------------------------------------------

def test_reschedule_returns_the_same_handle():
    """Near or far, reschedule re-stamps and returns the handle it was
    given; the old entry is dead, so the old time never fires."""
    sim = Simulator()
    seen = []

    def fire(tag):
        seen.append((tag, sim.now))

    near = sim.schedule(0.5, fire, "near")
    far = sim.schedule(100.0, fire, "far")
    assert sim.reschedule(near, 0.7) is near
    assert sim.reschedule(far, 101.0) is far
    assert (near.time, far.time) == (0.7, 101.0)
    assert not (near.cancelled or far.cancelled)
    assert sim.calendar_stats()["dead"] == 2
    sim.run()
    assert seen == [("near", 0.7), ("far", 101.0)]
    assert near.done and far.done
    assert sim.calendar_stats() == {"stored": 0, "dead": 0, "compactions": 0}


def test_until_parks_cursor_without_skipping_events():
    """A time-limited run must not drop events that were cut off by
    ``until``; they fire on the next run()."""
    sim = Simulator()
    seen = []
    sim.schedule(6.0, seen.append, "late")
    sim.run(until=2.0)
    assert seen == [] and sim.now == 2.0
    sim.schedule(2.5, seen.append, "mid")  # scheduled after the pause
    sim.run()
    assert seen == ["mid", "late"]


def test_cancelled_overflow_heads_are_discarded_on_advance():
    """A cancelled entry is dropped, and its dead count released, when
    the run reaches it."""
    sim = Simulator()
    doomed = sim.schedule(50.0, _noop)
    sim.schedule(60.0, _noop)
    doomed.cancel()
    assert sim.calendar_stats()["dead"] == 1
    sim.run()
    assert sim.calendar_stats()["dead"] == 0
    assert doomed.done


# ----------------------------------------------------------------------
# the liveness rule inside a reversed concurrent batch
# ----------------------------------------------------------------------

def _batch_of_three(sim, seen):
    """Three concurrent events a, b, c at t=1; reversed, c runs first."""

    def fire(tag):
        seen.append((tag, sim.now))
        if tag in actions:
            actions.pop(tag)()

    actions = {}
    handles = {tag: sim.schedule(1.0, fire, tag) for tag in "abc"}
    return handles, actions


@pytest.mark.parametrize("new_time", [1.0, 2.0])
def test_reverse_batch_member_reschedules_a_member_not_yet_run(new_time):
    """The batch popped ``a`` before ``c`` moved it: the popped entry is
    dead, and ``a`` fires once, at its new time, in a later batch."""
    sim = Simulator(tie_order="reverse")
    seen = []
    handles, actions = _batch_of_three(sim, seen)
    actions["c"] = lambda: sim.reschedule(handles["a"], new_time)
    sim.run()
    assert seen == [("c", 1.0), ("b", 1.0), ("a", new_time)]
    assert sim.events_executed == 3 and sim.pending_events == 0
    assert sim.calendar_stats()["dead"] == 0


def test_reverse_batch_member_cancels_a_member_not_yet_run():
    sim = Simulator(tie_order="reverse")
    seen = []
    handles, actions = _batch_of_three(sim, seen)
    actions["c"] = handles["a"].cancel
    sim.run()
    assert seen == [("c", 1.0), ("b", 1.0)]
    assert handles["a"].cancelled and handles["a"].done
    assert sim.pending_events == 0
    assert sim.calendar_stats()["dead"] == 0


def test_reverse_batch_member_rearms_a_member_already_fired():
    """``b`` re-arms ``c``, which fired first: the new occurrence lands
    in a later batch, after the rest of this one."""
    sim = Simulator(tie_order="reverse")
    seen = []
    handles, actions = _batch_of_three(sim, seen)
    actions["b"] = lambda: sim.rearm(handles["c"], 1.0)
    sim.run()
    assert seen == [("c", 1.0), ("b", 1.0), ("a", 1.0), ("c", 1.0)]
    assert sim.tie_batches == 1 and sim.tie_events == 3
    assert sim.pending_events == 0


def test_reverse_max_events_puts_back_only_the_live_tail():
    """Stopping after ``c``, which moved ``a``, puts ``b`` back but not
    the dead entry ``a`` left in the batch."""
    sim = Simulator(tie_order="reverse")
    seen = []
    handles, actions = _batch_of_three(sim, seen)
    actions["c"] = lambda: sim.reschedule(handles["a"], 2.0)
    sim.run(max_events=1)
    assert seen == [("c", 1.0)]
    assert sim.pending_events == 2
    assert sim.calendar_stats() == {"stored": 2, "dead": 0, "compactions": 0}
    sim.run()
    assert seen == [("c", 1.0), ("b", 1.0), ("a", 2.0)]
    assert sim.calendar_stats()["dead"] == 0


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("how", ["cancel", "reschedule"])
def test_compaction_triggers_when_dead_exceed_live(how):
    """200 pushes leave 190 dead entries, by cancels or by reschedules;
    compaction drops them once they outnumber the live ones."""
    sim = Simulator()
    if how == "cancel":
        handles = [sim.schedule(1.0 + i * 0.001, _noop) for i in range(200)]
        survivors = handles[:10]
        for h in handles[10:]:
            h.cancel()
    else:
        survivors = [sim.schedule(1.0 + i * 0.001, _noop) for i in range(10)]
        for i in range(190):
            h = survivors[i % 10]
            sim.reschedule(h, h.time + 0.01)
    stats = sim.calendar_stats()
    assert stats["compactions"] >= 1
    assert stats["stored"] < 200
    assert stats["dead"] < 190  # the debt was actually dropped
    sim.run()
    assert all(h.done for h in survivors)
    assert sim.events_executed == 10
    assert sim.calendar_stats()["dead"] == 0


def test_compaction_during_run_keeps_loop_alive():
    """A compaction triggered by a callback's cancels must not strand
    the run loop: the heap is rebuilt in place."""
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
# property: the simulator executes exactly the reference heap loop's sequence
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
# Ties the random programs rarely hit: a reschedule and a rearm must
# both sequence as fresh schedules (after a resident event at the same
# instant and priority).
@example(program=[("schedule", 500, 0), ("schedule", 250, 0),
                  ("reschedule", 250, 0)])
@example(program=[("schedule", 250, 0), ("schedule", 500, 0),
                  ("run_until", 300, 0), ("rearm", 500, 0)])
def test_heap_and_wheel_execute_identically(program):
    assert _execute_program(Simulator(), program) == _execute_program(
        HeapSimulator(), program
    )


def _reschedule_churn(sim, seed):
    """Move 8 handles around 600 times (re-arming the ones that fired),
    with a paused run every 50 moves; returns the trace and the number
    of reschedules."""
    rng = random.Random(seed)
    trace = []

    def fire(tag):
        trace.append((round(sim.now, 6), tag))

    handles = [sim.schedule(rng.uniform(0.0, 20.0), fire, i) for i in range(8)]
    moves = 0
    for step in range(600):
        if step % 50 == 49:
            if step % 100 == 49:
                sim.run(until=sim.now + 1.0)
            else:
                sim.run(max_events=3)
            trace.append(("paused", round(sim.now, 6), sim.pending_events))
        idx = rng.randrange(8)
        time = sim.now + rng.uniform(0.0, 20.0)
        if handles[idx].done:
            sim.rearm(handles[idx], time)
        else:
            handles[idx] = sim.reschedule(handles[idx], time)
            moves += 1
    sim.run()
    trace.append(("executed", sim.events_executed))
    return trace, moves


def test_reschedule_churn_matches_the_oracle_and_compacts():
    """The fuzz's programs never pile up COMPACT_FLOOR dead entries;
    this reschedule-heavy run does, and must still match the oracle."""
    sim = Simulator()
    trace, moves = _reschedule_churn(sim, seed=23)
    assert moves >= 500
    assert (trace, moves) == _reschedule_churn(HeapSimulator(), seed=23)
    assert sim.calendar_stats()["compactions"] >= 1
    assert sim.calendar_stats()["dead"] == 0
