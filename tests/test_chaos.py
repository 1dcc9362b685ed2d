"""Chaos testing: random scaling churn under live load.

Property: whatever sequence of scale-out / scale-in / vertical /
soft-resize actions the controller machinery performs while requests
are flowing, the system must conserve requests (everything submitted
eventually completes once the load stops), keep pool accounting
consistent, and never throw. This is the class of bug (drain races,
pool resize vs in-flight grants, capacity swaps mid-PS-phase) that
point tests miss.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.hypervisor import Hypervisor
from repro.control.bus import ControlBus
from repro.faults.injector import apply_slowdown, remove_slowdown
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, DB, WEB, NTierApplication, SoftResourceAllocation
from repro.rng import RngRegistry
from repro.scaling.actuator import Actuator
from repro.scaling.factory import ServerFactory
from repro.sim.engine import Simulator
from repro.workload.generator import ClosedLoopGenerator, RequestFactory

from tests.conftest import simple_capacity, tiny_mix


ACTIONS = st.lists(
    st.tuples(
        st.floats(0.5, 25.0),  # when
        st.sampled_from([
            "out_app", "out_db", "in_app", "in_db", "up_db",
            "threads_app", "conns", "web_threads",
            "crash_app", "crash_db", "slow_db",
        ]),
        st.integers(2, 80),  # soft value when applicable
    ),
    min_size=1,
    max_size=12,
)


def build_stack():
    sim = Simulator()
    soft = SoftResourceAllocation(200, 30, 20)
    app = NTierApplication(sim, soft)
    factory = ServerFactory(sim)
    factory.set_template(WEB, simple_capacity(1000), soft.web_threads)
    factory.set_template(APP, simple_capacity(50), soft.app_threads)
    factory.set_template(DB, simple_capacity(10, kappa=1e-4), 100_000)
    hv = Hypervisor(sim, prep_period=2.0)
    wh = MetricWarehouse(sim, fine_interval=0.5)
    actuator = Actuator(sim, app, hv, factory, wh, ControlBus())
    for tier in (WEB, APP, DB):
        actuator.bootstrap(tier, 1)
    return sim, app, actuator


def _crash(actuator, app, tier, value):
    servers = sorted(app.tiers[tier].servers, key=lambda s: s.name)
    if servers:
        actuator.crash_server(servers[value % len(servers)].name)


def _slow_episode(sim, app, value):
    """A short multiplicative degradation with a crash-tolerant restore."""
    servers = sorted(app.tiers[DB].servers, key=lambda s: s.name)
    if not servers:
        return
    name = servers[value % len(servers)].name
    apply_slowdown(servers[value % len(servers)], 4.0)

    def _restore():
        target = next(
            (s for s in app.tiers[DB].all_instances() if s.name == name), None
        )
        if target is not None:
            remove_slowdown(target, 4.0)

    sim.schedule_after(3.0, _restore)


def apply_action(sim, actuator, app, kind, value):
    from repro.errors import FaultError, ScalingError

    try:
        if kind == "out_app":
            actuator.scale_out(APP)
        elif kind == "out_db":
            actuator.scale_out(DB)
        elif kind == "in_app":
            actuator.scale_in(APP)
        elif kind == "in_db":
            actuator.scale_in(DB)
        elif kind == "up_db":
            actuator.scale_up(DB, factor=2.0, max_vcpus=4.0)
        elif kind == "threads_app":
            actuator.set_app_threads(value)
        elif kind == "conns":
            actuator.set_db_connections(value)
        elif kind == "web_threads":
            actuator.set_web_threads(max(50, value))
        elif kind == "crash_app":
            _crash(actuator, app, APP, value)
        elif kind == "crash_db":
            _crash(actuator, app, DB, value)
        elif kind == "slow_db":
            _slow_episode(sim, app, value)
    except (ScalingError, FaultError):
        # e.g. draining or crashing the last server — a legal refusal,
        # not a bug
        pass


@given(ACTIONS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_scaling_churn_conserves_requests(actions):
    sim, app, actuator = build_stack()
    rng = RngRegistry(99)
    gen = ClosedLoopGenerator(
        sim, app, 25,
        RequestFactory(tiny_mix(web=0.0005, app=0.004, db=0.02), rng.stream("d")),
        rng.stream("u"), think_time=0.0,
    )
    gen.start()
    for when, kind, value in actions:
        sim.schedule(when, apply_action, sim, actuator, app, kind, value)
    sim.run(until=30.0)
    gen.stop()
    sim.run(until=90.0)  # drain everything, including draining servers

    # conservation: every submitted request completed or was failed by
    # a crash — nothing is silently lost
    assert app.in_flight == 0
    assert app.completed + app.failed == app.submitted
    assert app.completed > 100

    # pool accounting: nothing left holding permits or queued
    for tier in (WEB, APP, DB):
        for server in app.tiers[tier].all_instances():
            assert server.admitted == 0
            assert server.threads.in_use == 0
            assert server.threads.queued == 0
    for pool in app.conn_pools.values():
        assert pool.in_use == 0
        assert pool.queued == 0

    # every live app server has a conn pool and vice versa
    live_app = {s.name for s in app.tiers[APP].servers}
    draining_app = {s.name for s in app.tiers[APP].draining}
    assert live_app | draining_app <= set(app.conn_pools) | draining_app
    # topology sane
    assert app.tiers[WEB].size >= 1
    assert app.tiers[APP].size >= 1
    assert app.tiers[DB].size >= 1


def test_scale_in_under_heavy_load_loses_nothing():
    """Directed version of the property: drain the busier replica while
    the system is saturated."""
    sim, app, actuator = build_stack()
    rng = RngRegistry(5)
    gen = ClosedLoopGenerator(
        sim, app, 60,
        RequestFactory(tiny_mix(db=0.02), rng.stream("d")),
        rng.stream("u"), think_time=0.0,
    )
    gen.start()
    sim.schedule(1.0, actuator.scale_out, DB)
    sim.schedule(6.0, actuator.scale_in, DB)
    sim.schedule(8.0, actuator.scale_out, DB)
    sim.schedule(14.0, actuator.scale_in, DB)
    sim.run(until=20.0)
    gen.stop()
    sim.run(until=60.0)
    assert app.in_flight == 0
    assert app.completed == app.submitted
    assert app.tiers[DB].draining == []


def test_crash_during_drain_cancels_poll_and_conserves():
    """A draining server dying mid-drain must cancel its drain poll
    (no FaultError from a poll on a vanished server), fail its
    stragglers, and leave clean accounting."""
    sim, app, actuator = build_stack()
    rng = RngRegistry(17)
    gen = ClosedLoopGenerator(
        sim, app, 40,
        RequestFactory(tiny_mix(db=0.02), rng.stream("d")),
        rng.stream("u"), think_time=0.0,
    )
    gen.start()
    sim.schedule(1.0, actuator.scale_out, DB)
    sim.schedule(6.0, actuator.scale_in, DB)

    crashed = {}

    def _crash_draining():
        draining = app.tiers[DB].draining
        assert draining, "drain should still be in progress"
        crashed["victims"] = len(actuator.crash_server(draining[0].name))

    sim.schedule(6.05, _crash_draining)
    sim.run(until=20.0)
    gen.stop()
    sim.run(until=60.0)
    assert "victims" in crashed  # the crash really hit a draining server
    assert app.failed == crashed["victims"]
    assert app.completed + app.failed == app.submitted
    assert app.in_flight == 0
    assert app.tiers[DB].size == 1
    assert app.tiers[DB].draining == []
    assert not actuator.action_in_flight(DB)


def test_slow_node_during_scale_up_composes():
    """Vertical scaling mid-degradation: after the episode ends the
    server's capacity must equal original x scale_up factor exactly."""
    sim, app, actuator = build_stack()
    state = {}

    def _degrade():
        target = app.tiers[DB].servers[0]
        state["target"] = target
        state["original"] = target.capacity.resource("cpu").units
        apply_slowdown(target, 4.0)

    sim.schedule(1.0, _degrade)
    sim.schedule(2.0, actuator.scale_up, DB, 2.0, 8.0)
    sim.schedule(10.0, lambda: remove_slowdown(state["target"], 4.0))
    sim.run(until=20.0)
    assert abs(
        state["target"].capacity.resource("cpu").units
        - state["original"] * 2.0
    ) < 1e-9
