"""Tests for the discrete-event engine."""

import pytest

from repro.errors import ConfigurationError, ScheduleError, SimulationError
from repro.sim.engine import TIE_ORDERS, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5]
    assert sim.now == 2.5


def test_run_until_excludes_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0  # clock lands exactly on `until`


def test_run_until_then_resume():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(10.0, seen.append, 10)
    sim.run(until=5.0)
    sim.run()
    assert seen == [1, 10]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleError):
        sim.schedule(1.0, lambda: None)


def _pending(sim):
    return sim.schedule(1.0, lambda: None)


def _fired(sim):
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    return handle


# Each method gets a handle it may act on, so only the time is at fault.
_TIMED_CALLS = {
    "schedule": lambda sim, t: sim.schedule(t, lambda: None),
    "schedule_after": lambda sim, t: sim.schedule_after(t, lambda: None),
    "reschedule": lambda sim, t: sim.reschedule(_pending(sim), t),
    "rearm": lambda sim, t: sim.rearm(_fired(sim), t),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("method", sorted(_TIMED_CALLS))
def test_non_finite_time_raises_before_taking_a_seq(method, bad):
    """A NaN or infinite time would misorder the heap silently: each
    scheduling method refuses it with ScheduleError, and the refused
    call takes no sequence number."""
    sim = Simulator()
    with pytest.raises(ScheduleError, match="non-finite"):
        _TIMED_CALLS[method](sim, bad)
    # One seq per successful call: the helper's and this one's.
    taken = 0 if method.startswith("schedule") else 1
    assert sim.schedule(5.0, lambda: None).seq == taken


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_start_time_raises(bad):
    with pytest.raises(ConfigurationError, match="start_time"):
        Simulator(start_time=bad)


def test_schedule_after_negative_delay_raises():
    with pytest.raises(ScheduleError):
        Simulator().schedule_after(-1.0, lambda: None)


def test_schedule_after_relative():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, lambda: sim.schedule_after(2.0, lambda: seen.append(sim.now)))
    sim.run()
    # the inner callback records the time it RUNS at, i.e. 5.0
    assert seen == [5.0]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []
    assert sim.events_executed == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_stop_from_callback():
    sim = Simulator()
    seen = []

    def first():
        seen.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, seen.append, 2)
    sim.run()
    assert seen == [1]


def test_max_events_budget():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(float(i + 1), seen.append, i)
    sim.run(max_events=2)
    assert seen == [0, 1]


@pytest.mark.parametrize("tie_order", TIE_ORDERS)
@pytest.mark.parametrize("max_events", [0, -1])
def test_max_events_below_one_is_refused(tie_order, max_events):
    """Both run loops refuse an empty or negative budget up front
    instead of reading it differently (one ran every event, the other
    exactly one)."""
    sim = Simulator(tie_order=tie_order)
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, seen.append, t)
    with pytest.raises(ConfigurationError, match="max_events"):
        sim.run(max_events=max_events)
    assert seen == [] and sim.now == 0.0 and sim.pending_events == 3
    sim.run(max_events=1)
    assert seen == [1.0]


@pytest.mark.parametrize("tie_order", TIE_ORDERS)
@pytest.mark.parametrize("until", [float("nan"), float("inf")])
def test_non_finite_until_is_refused(tie_order, until):
    """``until=nan`` would run every event and ``until=inf`` would park
    the clock at infinity; both loops refuse them up front."""
    sim = Simulator(tie_order=tie_order)
    seen = []
    sim.schedule(1.0, seen.append, 1.0)
    with pytest.raises(ConfigurationError, match="until"):
        sim.run(until=until)
    assert seen == [] and sim.now == 0.0


def test_events_executed_counts_only_fired():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    sim.run()
    assert sim.events_executed == 1


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.pending_events == 1


def test_pending_events_double_cancel_counts_once():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()
    assert sim.pending_events == 1


def test_pending_events_cancel_after_fire_is_noop():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert sim.pending_events == 1
    h.cancel()  # already fired; must not decrement
    assert sim.pending_events == 1


def test_pending_events_drains_to_zero():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    handles[2].cancel()
    assert sim.pending_events == 3
    sim.run()
    assert sim.pending_events == 0


def test_reentrant_run_raises():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_callback_scheduling_more_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 4:
            sim.schedule_after(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]
    assert sim.now == 4.0


# ----------------------------------------------------------------------
# reschedule / rearm (the churn-free fast paths)
# ----------------------------------------------------------------------

def test_reschedule_moves_event_to_new_time():
    sim = Simulator()
    seen = []
    h = sim.schedule(1.0, seen.append, "x")
    sim.reschedule(h, 3.0)
    sim.schedule(2.0, seen.append, "y")
    sim.run()
    assert seen == ["y", "x"]
    assert sim.now == 3.0


def test_reschedule_already_fired_raises():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleError, match="already-fired"):
        sim.reschedule(h, 2.0)


def test_reschedule_cancelled_raises():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    h.cancel()
    with pytest.raises(ScheduleError, match="cancelled"):
        sim.reschedule(h, 2.0)


def test_reschedule_foreign_handle_raises():
    sim, other = Simulator(), Simulator()
    h = other.schedule(1.0, lambda: None)
    with pytest.raises(ScheduleError, match="foreign"):
        sim.reschedule(h, 2.0)


def test_reschedule_into_past_raises():
    sim = Simulator()
    h = sim.schedule(5.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=3.0)
    with pytest.raises(ScheduleError, match="clock is at"):
        sim.reschedule(h, 1.0)


def test_reschedule_sequences_as_fresh_schedule():
    """A rescheduled event runs after events already pending at the same
    instant, exactly like a cancel+schedule pair would."""
    sim = Simulator()
    seen = []
    moved = sim.schedule(1.0, seen.append, "moved")
    sim.schedule(2.0, seen.append, "resident")
    sim.reschedule(moved, 2.0)
    sim.run()
    assert seen == ["resident", "moved"]


def test_rearm_refires_same_handle():
    sim = Simulator()
    seen = []

    def tick():
        seen.append(sim.now)
        if len(seen) < 3:
            sim.rearm(h, sim.now + 1.0)

    h = sim.schedule(1.0, tick)
    sim.run()
    assert seen == [1.0, 2.0, 3.0]
    assert h.done


def test_rearm_pending_handle_raises():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    with pytest.raises(ScheduleError, match="still-pending"):
        sim.rearm(h, 2.0)


def test_rearm_cancelled_handle_raises():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    h.cancel()
    sim.run()
    with pytest.raises(ScheduleError, match="cancelled"):
        sim.rearm(h, 2.0)


def test_rearmed_handle_can_be_cancelled():
    sim = Simulator()
    seen = []

    def tick():
        seen.append(sim.now)
        sim.rearm(h, sim.now + 1.0)
        if sim.now >= 2.0:
            h.cancel()

    h = sim.schedule(1.0, tick)
    sim.run(until=10.0)
    assert seen == [1.0, 2.0]


# ----------------------------------------------------------------------
# budget exhaustion inside a permuted concurrent batch
# ----------------------------------------------------------------------

def test_max_events_mid_batch_reverse_tie_order():
    """Exhausting max_events halfway through a reversed batch must keep
    the unexecuted tail schedulable, and a later run() finishes it."""
    sim = Simulator(tie_order="reverse")
    seen = []
    for tag in ("a", "b", "c", "d", "e"):
        sim.schedule(1.0, seen.append, tag)
    sim.run(max_events=3)
    assert seen == ["e", "d", "c"]
    assert sim.pending_events == 2
    sim.run()
    assert seen == ["e", "d", "c", "b", "a"]
    assert sim.pending_events == 0


def test_max_events_mid_batch_preserves_cancelled_tail():
    sim = Simulator(tie_order="reverse")
    seen = []
    handles = [sim.schedule(1.0, seen.append, tag) for tag in "abcde"]
    handles[0].cancel()  # tail member under reversal
    sim.run(max_events=3)
    assert seen == ["e", "d", "c"]
    sim.run()
    assert seen == ["e", "d", "c", "b"]
    assert handles[0].done and handles[0].cancelled


# ----------------------------------------------------------------------
# calendar introspection
# ----------------------------------------------------------------------

def test_calendar_property_and_default():
    """One calendar, the heap: no kind selector left to query, and the
    occupancy counters report stored and dead entries and compactions."""
    sim = Simulator()
    assert not hasattr(sim, "calendar")
    assert set(sim.calendar_stats()) == {"stored", "dead", "compactions"}


def test_unknown_calendar_raises():
    with pytest.raises(TypeError, match="calendar"):
        Simulator(calendar="heap")


def test_repr_reports_live_pending_and_calendar():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
    handles[0].cancel()
    text = repr(sim)
    assert "pending=2" in text       # live count, not raw storage
    assert "stored=3" in text        # calendar occupancy, tombstone included
