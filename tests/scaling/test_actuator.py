"""Tests for the scaling actuator."""

import pytest

from repro.cloud.hypervisor import Hypervisor
from repro.control.bus import ControlBus
from repro.control.trace import DecisionTrace
from repro.errors import ScalingError
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, DB, WEB, NTierApplication, SoftResourceAllocation
from repro.ntier.request import Request
from repro.scaling.actuator import Actuator
from repro.scaling.factory import ServerFactory
from repro.sim.engine import Simulator

from tests.conftest import simple_capacity


def make_stack(prep=15.0, soft=None):
    sim = Simulator()
    soft = soft or SoftResourceAllocation(100, 60, 40)
    app = NTierApplication(sim, soft)
    factory = ServerFactory(sim)
    for tier in (WEB, APP, DB):
        factory.set_template(tier, simple_capacity(1000), soft.for_tier(tier))
    hv = Hypervisor(sim, prep_period=prep)
    wh = MetricWarehouse(sim)
    actuator = Actuator(sim, app, hv, factory, wh, ControlBus())
    return sim, app, actuator


def recorded(actuator):
    """A trace of what ``actuator`` publishes from now on."""
    return DecisionTrace().attach(actuator.bus)


def bootstrap_all(sim, actuator, topology=(1, 1, 1)):
    for tier, n in zip((WEB, APP, DB), topology):
        actuator.bootstrap(tier, n)
    sim.run(until=0.0)


def test_bootstrap_builds_topology_immediately():
    sim, app, actuator = make_stack()
    trace = recorded(actuator)
    bootstrap_all(sim, actuator, (1, 2, 1))
    assert app.topology() == (1, 2, 1)
    assert set(app.conn_pools) == {"app-1", "app-2"}
    # bootstrap events are distinguishable from scale-outs
    kinds = {a.kind for a in trace}
    assert kinds == {"bootstrap_ready"}


def test_scale_out_waits_prep_period():
    sim, app, actuator = make_stack(prep=15.0)
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    actuator.scale_out(DB)
    assert actuator.action_in_flight(DB)
    sim.run(until=14.9)
    assert app.topology() == (1, 1, 1)
    sim.run(until=15.1)
    assert app.topology() == (1, 1, 2)
    assert not actuator.action_in_flight(DB)
    assert trace.scale_out_times(DB) == [pytest.approx(15.0)]


def test_scale_out_notifies_listeners():
    sim, app, actuator = make_stack(prep=1.0)
    bootstrap_all(sim, actuator)
    events = []
    actuator.bus.subscribe(lambda e: events.append((e.tier, e.kind, e.source)))
    actuator.scale_out(APP)
    sim.run(until=2.0)
    assert events == [
        (APP, "scale_out_started", "actuator"),
        (APP, "scale_out_ready", "actuator"),
    ]


def test_new_app_server_gets_current_db_connections():
    sim, app, actuator = make_stack(prep=1.0)
    bootstrap_all(sim, actuator)
    actuator.set_db_connections(12)
    actuator.scale_out(APP)
    sim.run(until=2.0)
    assert app.conn_pools["app-2"].limit == 12


def test_scale_in_drains_then_stops():
    sim, app, actuator = make_stack(prep=0.5)
    trace = recorded(actuator)
    bootstrap_all(sim, actuator, (1, 2, 1))
    # occupy app-2 so the drain has to wait
    server = app.tiers[APP].servers[1]
    req = Request(0, "X", 0.0, {"app": 1.0})
    server.admit(req, 0.0, lambda r: None)
    actuator.scale_in(APP)
    assert app.topology() == (1, 1, 1)  # removed from routing at once
    sim.run(until=3.0)
    assert actuator.action_in_flight(APP)  # still draining
    server.release(req)
    sim.run(until=5.0)
    assert not actuator.action_in_flight(APP)
    assert "app-2" not in app.conn_pools
    kinds = [a.kind for a in trace.for_tier(APP)]
    assert kinds[-1] == "scale_in_done"


def test_soft_resizes_hit_live_servers_and_templates():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator, (1, 2, 1))
    actuator.set_app_threads(25)
    for server in app.tiers[APP].servers:
        assert server.threads.limit == 25
    assert actuator.factory.thread_limit(APP) == 25
    actuator.set_db_connections(9)
    assert all(p.limit == 9 for p in app.conn_pools.values())
    assert actuator.db_connections == 9
    actuator.set_web_threads(500)
    assert app.tiers[WEB].servers[0].threads.limit == 500


def test_soft_resize_noop_not_logged():
    sim, app, actuator = make_stack()
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    n_before = len(trace)
    actuator.set_db_connections(actuator.db_connections)
    actuator.set_app_threads(actuator.factory.thread_limit(APP))
    assert len(trace) == n_before


def test_soft_resize_validation():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    with pytest.raises(ScalingError):
        actuator.set_db_connections(0)
    with pytest.raises(ScalingError):
        actuator.set_app_threads(0)


def test_soft_actions_logged():
    sim, app, actuator = make_stack()
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    actuator.set_app_threads(30)
    actuator.set_db_connections(10)
    kinds = [a.kind for a in trace if a.kind.startswith("soft")]
    assert kinds == ["soft_app_threads", "soft_db_connections"]
    values = [a.value for a in trace if a.kind.startswith("soft")]
    assert values == [30, 10]
