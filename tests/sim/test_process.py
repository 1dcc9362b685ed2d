"""Tests for periodic processes."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from tests.sim.heap_oracle import HeapSimulator


def test_ticks_at_fixed_interval():
    sim = Simulator()
    ticks = []
    PeriodicProcess(sim, 1.0, ticks.append)
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_stop_cancels_future_ticks():
    sim = Simulator()
    ticks = []
    proc = PeriodicProcess(sim, 1.0, ticks.append)
    sim.schedule(2.5, proc.stop)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert proc.stopped


def test_stop_from_inside_callback():
    sim = Simulator()
    ticks = []
    proc = PeriodicProcess(sim, 1.0, lambda t: (ticks.append(t), proc.stop()))
    sim.run(until=10.0)
    assert ticks == [1.0]


def test_invalid_interval_raises():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        PeriodicProcess(sim, 0.0, lambda t: None)
    with pytest.raises(ConfigurationError):
        PeriodicProcess(sim, -1.0, lambda t: None)


def test_interval_property():
    sim = Simulator()
    proc = PeriodicProcess(sim, 0.25, lambda t: None)
    assert proc.interval == 0.25


def test_stop_is_idempotent():
    sim = Simulator()
    proc = PeriodicProcess(sim, 1.0, lambda t: None)
    proc.stop()
    proc.stop()
    sim.run(until=3.0)


def test_ticks_reuse_one_event_handle():
    """The periodic chain re-arms the fired handle instead of allocating
    a fresh event per tick."""
    sim = Simulator()
    handles = []
    proc = PeriodicProcess(sim, 1.0, lambda t: handles.append(proc._handle))
    sim.run(until=4.5)
    assert len(handles) == 4
    assert len({id(h) for h in handles}) == 1
    assert handles[0] is proc._handle


def test_periodic_ticks_identical_across_calendars():
    """The rearm fast path ticks exactly like the reference heap loop."""

    def ticks_on(sim):
        ticks = []
        PeriodicProcess(sim, 0.05, ticks.append)
        sim.run(until=1.0)
        return ticks, sim.events_executed

    assert ticks_on(Simulator()) == ticks_on(HeapSimulator())
