"""FaultInjector: each fault class against a live mini-stack."""

import numpy as np
import pytest

from repro.cloud.hypervisor import Hypervisor
from repro.control.bus import ControlBus
from repro.control.trace import DecisionTrace
from repro.faults.injector import FaultInjector, apply_slowdown, remove_slowdown
from repro.faults.plan import (
    ClientTimeoutSpec,
    FaultPlan,
    ProvisioningFaultSpec,
    ServerCrashSpec,
    SlowNodeSpec,
    TelemetryDropoutSpec,
)
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, DB, WEB, NTierApplication, SoftResourceAllocation
from repro.ntier.server import Server, ServerConfig
from repro.rng import RngRegistry
from repro.scaling.actuator import Actuator
from repro.scaling.factory import ServerFactory
from repro.scaling.policy import ThresholdPolicy, TierPolicyConfig
from repro.sim.engine import Simulator
from repro.workload.generator import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
    RequestFactory,
)
from repro.workload.trace import Trace

from tests.conftest import build_app, simple_capacity, tiny_mix


def build_stack(topology=(1, 2, 2)):
    sim = Simulator()
    soft = SoftResourceAllocation(200, 30, 20)
    app = NTierApplication(sim, soft)
    factory = ServerFactory(sim)
    factory.set_template(WEB, simple_capacity(1000), soft.web_threads)
    factory.set_template(APP, simple_capacity(50), soft.app_threads)
    factory.set_template(DB, simple_capacity(10), 100_000)
    hv = Hypervisor(sim, prep_period=2.0)
    bus = ControlBus()
    wh = MetricWarehouse(sim, fine_interval=0.5)
    trace = DecisionTrace()
    actuator = Actuator(sim, app, hv, factory, wh, trace, bus)
    for tier, n in zip((WEB, APP, DB), topology):
        actuator.bootstrap(tier, n)
    return sim, app, actuator, hv, wh, bus, trace


def make_injector(stack, plan, generator=None):
    sim, app, actuator, hv, wh, bus, trace = stack
    injector = FaultInjector(sim, app, actuator, hv, wh, generator, bus)
    injector.schedule(plan)
    return injector


def closed_loop(sim, app, users=20, seed=7):
    rng = RngRegistry(seed)
    gen = ClosedLoopGenerator(
        sim, app, users,
        RequestFactory(tiny_mix(db=0.01), rng.stream("d")),
        rng.stream("u"), think_time=0.0,
    )
    gen.start()
    return gen


def db_units(app, name="db-1"):
    server = next(
        s for s in app.tiers[DB].all_instances() if s.name == name
    )
    return server.capacity.resource("cpu").units


# ----------------------------------------------------------------------
# slow node
# ----------------------------------------------------------------------

def test_slow_node_degrades_then_restores():
    stack = build_stack()
    sim, app, *_ , trace = stack
    injector = make_injector(
        stack, FaultPlan((SlowNodeSpec(DB, 2.0, duration=3.0, slowdown=4.0),))
    )
    sim.run(until=3.0)
    assert db_units(app) == 0.25
    sim.run(until=6.0)
    assert db_units(app) == 1.0
    kinds = [e.kind for e in trace.faults()]
    assert kinds == ["fault_injected", "fault_recovered"]
    assert len(injector.episodes) == 1
    assert injector.episodes[0].kind == "slow"


def test_overlapping_slow_episodes_compose():
    stack = build_stack()
    sim, app, *_ = stack
    make_injector(
        stack,
        FaultPlan(
            (
                SlowNodeSpec(DB, 1.0, duration=4.0, slowdown=4.0),
                SlowNodeSpec(DB, 2.0, duration=6.0, slowdown=2.0),
            )
        ),
    )
    sim.run(until=3.0)
    assert abs(db_units(app) - 1.0 / 8.0) < 1e-12  # both active
    sim.run(until=6.0)
    assert abs(db_units(app) - 0.5) < 1e-12  # first restored
    sim.run(until=9.0)
    assert abs(db_units(app) - 1.0) < 1e-12  # fully healed


def test_slow_node_composes_with_scale_up():
    stack = build_stack()
    sim, app, actuator, *_ = stack
    make_injector(
        stack, FaultPlan((SlowNodeSpec(DB, 1.0, duration=10.0, slowdown=4.0),))
    )
    sim.schedule(2.0, actuator.scale_up, DB, 2.0, 8.0)
    sim.run(until=20.0)
    # scale_up picked the fewest-vCPU server (both equal -> first);
    # after recovery its units must be exactly original x factor.
    total = sum(
        s.capacity.resource("cpu").units for s in app.tiers[DB].servers
    )
    assert abs(total - 3.0) < 1e-9  # 2.0 (scaled) + 1.0 (untouched)


def test_slow_node_target_gone_before_recovery():
    stack = build_stack()
    sim, app, actuator, *_ , trace = stack
    gen = closed_loop(sim, app)
    make_injector(
        stack, FaultPlan((SlowNodeSpec(DB, 1.0, duration=10.0, slowdown=4.0),))
    )
    sim.schedule(3.0, actuator.crash_server, "db-1")
    sim.run(until=15.0)
    gen.stop()
    sim.run(until=40.0)
    kinds = [e.kind for e in trace.faults()]
    assert "fault_recovered" in kinds  # recovery fired as a no-op
    assert "server_ejected" in kinds
    assert app.completed + app.failed == app.submitted


def slow_window(sim, server, at, duration, slowdown):
    """Degrade ``server`` by ``slowdown`` over ``[at, at + duration)``."""
    sim.schedule(at, apply_slowdown, server, slowdown)
    sim.schedule(at + duration, remove_slowdown, server, slowdown)


def test_slow_node_raises_latency_then_recovers():
    sim = Simulator()
    app = build_app(sim, db_a_sat=10.0)
    rng = RngRegistry(3)
    latencies: list[tuple[float, float]] = []
    app.on_complete(lambda r: latencies.append((r.completion, r.response_time)))
    ClosedLoopGenerator(
        sim, app, 8, RequestFactory(tiny_mix(cv=0.0), rng.stream("d")),
        rng.stream("u"), think_time=0.0,
    ).start()
    slow_window(sim, app.tiers[DB].servers[0], at=10.0, duration=10.0, slowdown=8.0)
    sim.run(until=35.0)

    def mean_rt(t0, t1):
        vals = [rt for (t, rt) in latencies if t0 <= t < t1]
        return float(np.mean(vals))

    before = mean_rt(2.0, 10.0)
    during = mean_rt(12.0, 20.0)
    after = mean_rt(25.0, 35.0)
    assert during > 3.0 * before
    assert after == pytest.approx(before, rel=0.2)


def test_leastconn_sheds_load_from_slow_replica():
    """With two DB replicas and leastconn, the degraded one serves a
    much smaller share of the completions during the fault window."""
    sim = Simulator()
    soft = SoftResourceAllocation(10_000, 10_000, 10_000)
    app = NTierApplication(sim, soft)
    for name, tier, a_sat in [
        ("web-1", "web", 1000), ("app-1", "app", 1000),
        ("db-1", "db", 10), ("db-2", "db", 10),
    ]:
        app.attach_server(
            Server(sim, ServerConfig(name, tier, simple_capacity(a_sat), 100_000))
        )
    rng = RngRegistry(5)
    ClosedLoopGenerator(
        sim, app, 16, RequestFactory(tiny_mix(cv=0.0), rng.stream("d")),
        rng.stream("u"), think_time=0.0,
    ).start()
    db1, db2 = app.tiers[DB].servers
    slow_window(sim, db1, at=10.0, duration=20.0, slowdown=8.0)
    sim.run(until=10.0)
    c1_start, c2_start = db1.completions, db2.completions
    sim.run(until=30.0)
    slow_share = (db1.completions - c1_start) / max(
        1, (db1.completions - c1_start) + (db2.completions - c2_start)
    )
    assert slow_share < 0.35, f"slow replica still served {slow_share:.0%}"
    assert db_units(app) == 1.0  # restored at t=30


# ----------------------------------------------------------------------
# server crash
# ----------------------------------------------------------------------

def test_crash_fails_inflight_and_ejects():
    stack = build_stack()
    sim, app, actuator, *_ , trace = stack
    gen = closed_loop(sim, app, users=30)
    injector = make_injector(stack, FaultPlan((ServerCrashSpec(DB, 5.0),)))
    sim.run(until=10.0)
    gen.stop()
    sim.run(until=40.0)
    assert app.tiers[DB].size == 1
    assert app.failed > 0
    assert app.completed + app.failed == app.submitted
    assert app.in_flight == 0
    kinds = [e.kind for e in trace.faults()]
    assert "fault_injected" in kinds and "server_ejected" in kinds
    assert injector.episodes[0].failed == app.failed
    # survivors keep clean accounting
    for server in app.tiers[DB].servers:
        assert server.admitted == server.threads.in_use


# ----------------------------------------------------------------------
# provisioning failure / delay
# ----------------------------------------------------------------------

def test_provisioning_failure_retries_with_backoff():
    stack = build_stack(topology=(1, 1, 1))
    sim, app, actuator, *_ , trace = stack
    make_injector(
        stack,
        FaultPlan((ProvisioningFaultSpec(DB, 1.0, duration=6.0, mode="fail"),)),
    )
    sim.schedule(2.0, actuator.scale_out, DB)
    probe = {}
    sim.schedule(5.0, lambda: probe.update(during=actuator.action_in_flight(DB)))
    sim.run(until=30.0)
    assert probe["during"] is True  # retry pending counts as in flight
    assert app.tiers[DB].size == 2  # the intent survived the fault
    kinds = [e.kind for e in trace.faults()]
    assert "scale_out_failed" in kinds
    assert "scale_out_retry" in kinds
    assert not actuator.action_in_flight(DB)


def test_provisioning_delay_stretches_prep():
    stack = build_stack(topology=(1, 1, 1))
    sim, app, actuator, *_ , trace = stack
    make_injector(
        stack,
        FaultPlan(
            (ProvisioningFaultSpec("*", 1.0, 10.0, mode="delay", delay_factor=4.0),)
        ),
    )
    sim.schedule(2.0, actuator.scale_out, DB)
    sim.run(until=30.0)
    ready = [e for e in trace.all() if e.kind == "scale_out_ready"]
    assert len(ready) == 1
    # prep 2s x factor 4 = 8s after the launch at t=2.
    assert abs(ready[0].time - 10.0) < 1e-9


# ----------------------------------------------------------------------
# telemetry dropout
# ----------------------------------------------------------------------

def test_dropout_makes_telemetry_stale_then_recovers():
    stack = build_stack()
    sim, app, actuator, hv, wh, bus, trace = stack
    gen = closed_loop(sim, app)
    make_injector(stack, FaultPlan((TelemetryDropoutSpec(3.0, 8.0, tier="*"),)))
    policy = ThresholdPolicy(
        sim, wh, actuator, {DB: TierPolicyConfig()}
    )
    probes = {}
    sim.schedule(2.5, lambda: probes.update(before=wh.telemetry_age(DB)))
    sim.schedule(10.0, lambda: probes.update(
        during=wh.telemetry_age(DB), decision=policy.evaluate(DB)
    ))
    sim.schedule(14.5, lambda: probes.update(after=wh.telemetry_age(DB)))
    sim.run(until=15.0)
    gen.stop()
    sim.run(until=40.0)
    assert probes["before"] <= 1.0
    assert probes["during"] > 5.0
    assert probes["decision"].action is None
    assert "telemetry stale" in probes["decision"].reason
    assert probes["after"] <= 1.0  # feed restored after the window


# ----------------------------------------------------------------------
# client timeout + retry
# ----------------------------------------------------------------------

def test_client_timeout_retries_and_clears():
    stack = build_stack()
    sim, app, *_ = stack
    rng = RngRegistry(11)
    trace_obj = Trace("flat", [0.0, 20.0], [30.0, 30.0])
    gen = OpenLoopGenerator(
        sim, app, trace_obj,
        RequestFactory(tiny_mix(db=0.01), rng.stream("d")),
        rng.stream("a"), think_time=0.5,
    )
    make_injector(
        stack,
        FaultPlan(
            (ClientTimeoutSpec(2.0, 8.0, deadline=0.001, max_retries=1),)
        ),
        generator=gen,
    )
    gen.start()
    sim.run(until=20.0)
    gen.stop()
    sim.run(until=60.0)
    assert gen.timeouts > 0
    assert gen.retried > 0
    assert gen.abandoned > 0  # max_retries=1 with an impossible deadline
    assert gen._deadline is None  # window closed
    # Physical requests all complete even when clients gave up on them.
    assert app.completed == app.submitted
    assert app.in_flight == 0
