"""Tests for the 3-tier application flow."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.ntier.app import APP, DB, WEB, NTierApplication, SoftResourceAllocation
from repro.ntier.request import Request
from repro.sim.engine import Simulator

from tests.conftest import build_app


def make_request(req_id=0, web=0.001, app=0.002, db=0.005):
    return Request(
        req_id=req_id, interaction="X", arrival=0.0,
        demands={"web": web, "app": app, "db": db},
    )


def test_soft_allocation_validation():
    with pytest.raises(ConfigurationError):
        SoftResourceAllocation(web_threads=0)
    with pytest.raises(ConfigurationError):
        SoftResourceAllocation(db_connections=0)


def test_soft_allocation_for_tier():
    soft = SoftResourceAllocation(100, 60, 40)
    assert soft.for_tier(WEB) == 100
    assert soft.for_tier(APP) == 60
    assert soft.for_tier(DB) > 1000  # MySQL effectively unbounded
    with pytest.raises(ConfigurationError):
        soft.for_tier("queue")


def test_single_request_completes_with_sum_of_demands():
    sim = Simulator()
    app = build_app(sim)
    req = make_request()
    done = []
    app.on_complete(done.append)
    sim.schedule(0.0, app.submit, req)
    sim.run()
    assert done == [req]
    # alone in the system: latency == web + app + db demands
    assert req.response_time == pytest.approx(0.001 + 0.002 + 0.005)


def test_request_visits_all_three_tiers():
    sim = Simulator()
    app = build_app(sim)
    req = make_request()
    sim.schedule(0.0, app.submit, req)
    sim.run()
    web, app_, db = (app.tiers[t].servers[0] for t in (WEB, APP, DB))
    assert [s.name for s in (web, app_, db)] == ["web-1", "app-1", "db-1"]
    for server in (web, app_, db):
        assert server.completions == 1 and server.is_idle
    # nesting: the web visit spans the app visit, which spans the db visit
    assert web.latency_total >= app_.latency_total >= db.latency_total > 0.0


def test_counters_and_in_flight():
    sim = Simulator()
    app = build_app(sim)
    sim.schedule(0.0, app.submit, make_request(0))
    sim.schedule(0.0, app.submit, make_request(1))
    assert app.in_flight == 0
    sim.run()
    assert app.submitted == 2
    assert app.completed == 2
    assert app.in_flight == 0


def test_conn_pool_caps_db_concurrency():
    sim = Simulator()
    soft = SoftResourceAllocation(1000, 100, 2)  # 2 DB connections
    app = build_app(sim, soft=soft, db_a_sat=100)
    peak = {"db": 0}
    db = app.tiers[DB].servers[0]

    def watch(r):
        peak["db"] = max(peak["db"], db.admitted)

    app.on_complete(watch)
    for i in range(10):
        sim.schedule(0.0, app.submit, make_request(i, db=0.05))
    # sample db concurrency shortly after start
    sim.schedule(0.01, lambda: peak.__setitem__("db", max(peak["db"], db.admitted)))
    sim.run()
    assert peak["db"] <= 2
    assert app.completed == 10


def test_app_threads_cap_app_concurrency():
    sim = Simulator()
    soft = SoftResourceAllocation(1000, 3, 50)
    app = build_app(sim, soft=soft)
    ap = app.tiers[APP].servers[0]
    observed = []
    for i in range(12):
        sim.schedule(0.0, app.submit, make_request(i, app=0.05))
    sim.schedule(0.02, lambda: observed.append(ap.admitted))
    sim.run()
    assert observed and max(observed) <= 3
    assert app.completed == 12


def test_topology():
    sim = Simulator()
    app = build_app(sim)
    assert app.topology() == (1, 1, 1)


def test_admission_pressure_db():
    sim = Simulator()
    soft = SoftResourceAllocation(1000, 100, 1)
    app = build_app(sim, soft=soft)
    for i in range(5):
        sim.schedule(0.0, app.submit, make_request(i, db=1.0))
    sim.run(until=0.01)
    queued, capacity = app.admission_pressure(DB)
    assert capacity == 1
    assert queued >= 3


def test_admission_pressure_app():
    sim = Simulator()
    soft = SoftResourceAllocation(1000, 2, 50)
    app = build_app(sim, soft=soft)
    for i in range(6):
        sim.schedule(0.0, app.submit, make_request(i, app=1.0))
    sim.run(until=0.01)
    queued, capacity = app.admission_pressure(APP)
    assert capacity == 2
    assert queued >= 3


def test_admission_pressure_unknown_tier():
    sim = Simulator()
    app = build_app(sim)
    with pytest.raises(ConfigurationError):
        app.admission_pressure("queue")


def test_soft_cap_is_the_admission_capacity():
    """One definition of a tier's soft cap: the live servers' thread
    limits for web and app, every app server's connection pool (a
    draining one's included) for the DB tier."""
    from repro.ntier.server import Server, ServerConfig
    from tests.conftest import simple_capacity

    sim = Simulator()
    app = build_app(sim, soft=SoftResourceAllocation(1000, 60, 40))
    app_2 = Server(sim, ServerConfig("app-2", APP, simple_capacity(1000), 30))
    app.attach_server(app_2, db_connections=7)
    app.attach_server(Server(sim, ServerConfig("db-2", DB, simple_capacity(10), 500)))
    app.conn_pools["app-1"].resize(12)
    app_2.threads.resize(25)
    assert [app.soft_cap(t) for t in (WEB, APP, DB)] == [1000, 60 + 25, 12 + 7]
    app.tiers[APP].begin_drain(app_2)
    assert [app.soft_cap(t) for t in (WEB, APP, DB)] == [1000, 60, 12 + 7]
    for tier in (WEB, APP, DB):
        assert app.admission_pressure(tier)[1] == app.soft_cap(tier)
    with pytest.raises(ConfigurationError):
        app.soft_cap("queue")


def test_attach_unknown_tier_rejected():
    from repro.ntier.server import Server, ServerConfig
    from tests.conftest import simple_capacity

    sim = Simulator()
    app = NTierApplication(sim)
    bad = Server(sim, ServerConfig("q-1", "queue", simple_capacity(), 10))
    with pytest.raises(ConfigurationError):
        app.attach_server(bad)


def test_multiple_app_servers_get_own_conn_pools():
    from repro.ntier.server import Server, ServerConfig
    from tests.conftest import simple_capacity

    sim = Simulator()
    app = build_app(sim)
    extra = Server(sim, ServerConfig("app-2", APP, simple_capacity(1000), 100))
    app.attach_server(extra, db_connections=7)
    assert set(app.conn_pools) == {"app-1", "app-2"}
    assert app.conn_pools["app-2"].limit == 7
    app.detach_conn_pool("app-2")
    assert set(app.conn_pools) == {"app-1"}


def test_synthetic_completions_count_without_listeners():
    """A fluid step's completions enter and leave the application at
    once; the completion listeners see discrete completions only."""
    sim = Simulator()
    app = build_app(sim)
    done = []
    app.on_complete(done.append)
    app.record_synthetic_completion(5)
    app.record_synthetic_completion(0)
    assert (app.submitted, app.completed, app.in_flight) == (5, 5, 0)
    assert done == []
    with pytest.raises(SimulationError):
        app.record_synthetic_completion(-1)
