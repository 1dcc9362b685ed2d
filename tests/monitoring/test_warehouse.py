"""Tests for the metric warehouse."""

import pytest

from repro.errors import MonitoringError
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sim.engine import Simulator

from tests.conftest import simple_capacity
from tests.sim.heap_oracle import HeapSimulator


def make_server(sim, name="db-1", tier="db", a_sat=10.0):
    return Server(sim, ServerConfig(name, tier, simple_capacity(a_sat), 1000))


def busy_flow(demand):
    """``Server.admit``'s arguments after the request: one phase of
    ``demand`` that returns the thread as it completes."""
    return demand, lambda r: None, True


def test_register_and_deregister():
    sim = Simulator()
    wh = MetricWarehouse(sim)
    server = make_server(sim)
    wh.register_server(server)
    assert wh.monitored_servers == ["db-1"]
    with pytest.raises(MonitoringError):
        wh.register_server(server)
    wh.deregister_server("db-1")
    assert wh.monitored_servers == []
    with pytest.raises(MonitoringError):
        wh.deregister_server("db-1")


def test_vm_samples_collected_each_tick():
    sim = Simulator()
    wh = MetricWarehouse(sim)
    wh.register_server(make_server(sim))
    sim.run(until=3.5)
    samples = wh.samples(window=10.0)
    assert len(samples) == 3
    assert {s.server for s in samples} == {"db-1"}


def test_tier_cpu_reflects_load():
    sim = Simulator()
    wh = MetricWarehouse(sim)
    server = make_server(sim, a_sat=10)
    wh.register_server(server)
    # Keep 5 requests active for the whole window -> util 0.5.
    for i in range(5):
        server.admit(Request(i, "X", 0.0, {"db": 1.0}), *busy_flow(100.0))
    sim.run(until=4.0)
    assert wh.tier_cpu("db", window=3.0) == pytest.approx(0.5, abs=0.02)


def test_tier_cpu_no_samples_is_zero():
    sim = Simulator()
    wh = MetricWarehouse(sim)
    assert wh.tier_cpu("db") == 0.0


def test_fine_samples_per_server():
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.1)
    wh.register_server(make_server(sim))
    sim.run(until=1.0)
    fine = wh.fine_samples("db-1", window=0.45)
    assert len(fine) == 5
    with pytest.raises(MonitoringError):
        wh.fine_samples("ghost", window=1.0)


def test_fine_samples_for_tier_grouping():
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.1)
    wh.register_server(make_server(sim, "db-1", "db"))
    wh.register_server(make_server(sim, "db-2", "db"))
    wh.register_server(make_server(sim, "app-1", "app"))
    sim.run(until=0.5)
    by_server = wh.fine_samples_for_tier("db", window=1.0)
    assert set(by_server) == {"db-1", "db-2"}


def test_deregistered_server_takes_its_fine_samples():
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.1)
    wh.register_server(make_server(sim))
    sim.run(until=2.5)
    wh.deregister_server("db-1")
    with pytest.raises(MonitoringError):
        wh.fine_samples("db-1", window=10.0)
    # the 1 s VM samples it already contributed stay
    assert [s.server for s in wh.samples(window=10.0)] == ["db-1", "db-1"]


def test_clear_and_trim_fine_samples():
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.1)
    wh.register_server(make_server(sim))
    sim.run(until=2.05)
    assert wh.trim_fine_samples("db-1", keep_after=0.95) == 9
    assert wh.fine_samples("db-1", window=10.0).t_end[0] == pytest.approx(1.0)
    assert wh.trim_fine_samples("db-1", keep_after=0.5) == 0
    wh.clear_fine_samples("db-1")
    assert len(wh.fine_samples("db-1", window=10.0)) == 0
    sim.run(until=2.55)
    assert len(wh.fine_samples("db-1", window=10.0)) == 5
    with pytest.raises(MonitoringError):
        wh.trim_fine_samples("ghost", keep_after=1.0)
    with pytest.raises(MonitoringError):
        wh.clear_fine_samples("ghost")


def test_samples_window_matches_full_scan():
    """The newest-first walk returns what filtering the whole history
    returns, in the same order."""
    sim = Simulator()
    wh = MetricWarehouse(sim)
    for name, tier in [("app-1", "app"), ("db-1", "db"), ("db-2", "db")]:
        wh.register_server(make_server(sim, name, tier))
    sim.run(until=45.5)
    history = wh.samples(window=1e9)
    assert history[0].t_end == 1.0
    for window in (0.0, 1.0, 7.5, 29.0, 100.0):
        for tier in (None, "app", "db", "web"):
            cutoff = sim.now - window
            expected = [s for s in history if s.t_end >= cutoff
                        and (tier is None or s.tier == tier)]
            assert wh.samples(window, tier) == expected


def test_late_registered_server_monitored_from_join():
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.5)
    server = make_server(sim)
    sim.schedule(5.0, wh.register_server, server)
    sim.run(until=8.0)
    fine = wh.fine_samples("db-1", window=100.0)
    assert len(fine) and (fine.t_end > 5.0).all()


def test_register_sampler_ticks_on_warehouse_cadence():
    sim = Simulator()
    wh = MetricWarehouse(sim)
    seen = []
    proc = wh.register_sampler(seen.append)
    sim.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]
    proc.stop()
    sim.run(until=6.0)
    assert seen == [1.0, 2.0, 3.0]


def test_register_sampler_observes_settled_tick():
    """A sampler registered through the warehouse sees the warehouse's
    own collection for the same instant already applied."""
    sim = Simulator()
    wh = MetricWarehouse(sim)
    wh.register_server(make_server(sim))
    counts = []
    wh.register_sampler(lambda now: counts.append(len(wh.samples(window=now + 1.0))))
    sim.run(until=3.0)
    assert counts == [1, 2, 3]


def test_primary_resource_rename_raises():
    """Differencing busy integrals across a renamed primary resource
    would fabricate rates; the collector must refuse instead."""
    from repro.ntier.capacity import CapacityModel, ContentionModel, Resource

    sim = Simulator()
    wh = MetricWarehouse(sim)
    server = make_server(sim)
    wh.register_server(server)
    sim.run(until=1.0)
    server.set_capacity(
        CapacityModel([Resource("gpu", 1.0, 0.1)], ContentionModel(0.0, 0.0))
    )
    with pytest.raises(MonitoringError, match="primary resource"):
        sim.run(until=2.0)


def test_vectorised_collection_matches_across_calendars():
    """The numpy collection pass collects exactly what it collects on
    the reference heap event loop."""

    def samples_on(sim):
        wh = MetricWarehouse(sim, fine_interval=0.25)
        servers = [make_server(sim, f"db-{i}", "db") for i in range(3)]
        for s in servers:
            wh.register_server(s)
        for i in range(30):
            sim.schedule(
                i * 0.1,
                servers[i % 3].admit,
                Request(i, "X", 0.0, {"db": 0.2}),
                *busy_flow(0.2),
            )
        sim.run(until=5.0)
        return [
            (s.t_end, s.server, s.cpu, s.concurrency, s.throughput)
            for s in wh.samples(window=10.0)
        ]

    assert samples_on(Simulator()) == samples_on(HeapSimulator())
