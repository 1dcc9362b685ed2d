"""Tests for fine-grained interval monitoring."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.monitoring.interval import IntervalMonitor, IntervalWindow
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sim.engine import Simulator

from tests.conftest import simple_capacity
from tests.monitoring.reference_monitor import RecordMonitor


def make_server(sim, a_sat=10.0):
    return Server(sim, ServerConfig("db-1", "db", simple_capacity(a_sat), 1000))


def flow(demand):
    """``Server.admit``'s arguments after the request: one phase of
    ``demand`` that returns the thread as it completes."""
    return demand, lambda r: None, True


def test_invalid_interval():
    sim = Simulator()
    server = make_server(sim)
    with pytest.raises(ConfigurationError):
        IntervalMonitor(sim, server, interval=0.0)


def test_idle_intervals_report_zero():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    sim.run(until=0.35)
    samples = mon.samples
    assert len(samples) == 3
    assert (samples.concurrency == 0.0).all()
    assert (samples.throughput == 0.0).all()
    assert np.isnan(samples.response_time).all()
    assert (samples.completions == 0).all()


def test_throughput_counts_completions_per_interval():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    # 5 sequential-ish jobs of 10ms each, all inside the first interval
    for i in range(5):
        sim.schedule(i * 0.011, server.admit,
                     Request(i, "X", 0.0, {"db": 0.01}), *flow(0.01))
    sim.run(until=0.25)
    samples = mon.samples
    assert samples.completions[0] == 5
    assert samples.throughput[0] == pytest.approx(50.0)
    assert samples.response_time[0] == pytest.approx(0.01, rel=0.05)


def test_concurrency_is_time_weighted():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    # one request occupying the server for exactly half the interval
    sim.schedule(0.0, server.admit, Request(0, "X", 0.0, {"db": 1.0}),
                 *flow(0.05))
    sim.run(until=0.15)
    assert mon.samples.concurrency[0] == pytest.approx(0.5)


def test_utilization_reported():
    sim = Simulator()
    server = make_server(sim, a_sat=10)
    mon = IntervalMonitor(sim, server, interval=0.1)
    sim.schedule(0.0, server.admit, Request(0, "X", 0.0, {"db": 1.0}),
                 *flow(0.1))
    sim.run(until=0.12)
    # one active request on a_sat=10 -> util 0.1 for the whole interval
    # (the util column is the busiest resource's; "cpu" is the only one)
    assert mon.samples.util[0] == pytest.approx(0.1)


def test_recent_window():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    sim.run(until=1.05)
    recent = mon.recent(0.35)
    assert len(recent) == 3
    assert (recent.t_end >= 0.7).all()


def test_stop_halts_sampling():
    sim = Simulator()
    server = make_server(sim)
    mon = IntervalMonitor(sim, server, interval=0.1)
    sim.schedule(0.25, mon.stop)
    sim.run(until=1.0)
    assert len(mon.samples) == 2


def test_window_is_a_read_only_slice():
    sim = Simulator()
    mon = IntervalMonitor(sim, make_server(sim), interval=0.1)
    sim.run(until=1.05)
    window = mon.recent(10.0)
    part = window[2:5]
    assert len(part) == 3
    assert part.t_end.tolist() == window.t_end[2:5].tolist()
    with pytest.raises(ValueError):
        part.util[0] = 1.0
    with pytest.raises(TypeError):
        window[0]


def test_a_closed_monitor_hands_out_writeable_views():
    """After ``close()`` windows are writeable views of the block (the
    runner keeps them in the artifact without a copy); samples taken
    later go to new columns and leave a view's values as they were."""
    sim = Simulator()
    mon = IntervalMonitor(sim, make_server(sim), interval=0.1)
    sim.run(until=1.05)
    before = mon.samples
    mon.close()
    window = mon.samples
    assert not before.t_end.flags.writeable
    assert window.t_end.tolist() == before.t_end.tolist()
    for column in (window.t_end, window.concurrency, window[2:5].util):
        assert column.flags.writeable
        assert np.shares_memory(column, before.t_end.base)
    assert mon.recent(0.25).t_end.flags.writeable
    held = window.t_end.copy()
    sim.run(until=100.0)  # grows the block past its first 256 columns
    assert len(mon.samples) > 256
    assert window.t_end.tolist() == held.tolist()


def _assert_same(window: IntervalWindow, records) -> None:
    assert len(window) == len(records)
    assert window.t_end.tolist() == [s.t_end for s in records]
    assert window.concurrency.tolist() == [s.concurrency for s in records]
    assert window.throughput.tolist() == [s.throughput for s in records]
    assert np.array_equal(window.response_time,
                          [s.response_time for s in records], equal_nan=True)
    assert window.completions.tolist() == [s.completions for s in records]
    # the util column is the busiest resource's rate, the one reduction
    # of the per-resource utilisation anything reads
    assert window.util.tolist() == [max(s.utilization.values()) for s in records]


def test_window_matches_record_monitor():
    """Driven by the same two-resource server, the columns hold exactly
    what one-record-per-interval monitoring held, through a dropout,
    clear, trim (with its count) and block growth: the 20 s run records
    380 samples, more than a fresh block's 256 columns."""
    sim = Simulator()
    capacity = CapacityModel(
        [Resource("cpu", 1.0, 0.04), Resource("disk", 1.0, 0.2)],
        ContentionModel(sigma=8e-3, kappa=4e-4),
    )
    server = Server(sim, ServerConfig("db-1", "db", capacity, 1000))
    mon = IntervalMonitor(sim, server, interval=0.05)
    twin = RecordMonitor(sim, server, interval=0.05)
    rng = np.random.default_rng(3)
    t = 0.0
    for i in range(2000):
        t += rng.exponential(0.009)
        sim.schedule(t, server.admit, Request(i, "X", 0.0, {"db": 1.0}),
                     *flow(rng.exponential(0.02)))

    trimmed: list[tuple[int, int]] = []
    snapshots: list[tuple[IntervalWindow, list]] = []

    def both(action, *args):
        def run():
            ours = getattr(mon, action)(*args)
            theirs = getattr(twin, action)(*args)
            if action == "trim":
                trimmed.append((ours, theirs))
        return run

    def compare():
        for window in (0.5, 3.0, math.inf):
            _assert_same(mon.recent(window), twin.recent(window))
        snapshots.append((mon.recent(math.inf), list(twin.samples)))

    sim.schedule(2.0, both("suspend"))
    sim.schedule(3.0, both("resume"))
    sim.schedule(5.0, compare)
    sim.schedule(5.5, both("trim", 3.5))
    sim.schedule(6.0, compare)
    sim.schedule(8.0, both("clear"))
    sim.schedule(8.0, compare)
    sim.schedule(12.0, compare)
    sim.schedule(16.0, both("trim", 15.0))
    sim.schedule(19.0, both("trim", 0.0))
    sim.run(until=20.0)
    compare()

    assert trimmed[0][0] == trimmed[0][1] > 0
    assert trimmed[1][0] == trimmed[1][1] > 0
    assert trimmed[2] == (0, 0)
    # a window handed out earlier is unchanged by later growth and drops
    for window, records in snapshots:
        _assert_same(window, records)
