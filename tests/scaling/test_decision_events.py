"""Every controller's decisions flow through the control bus.

A synthetic CPU signal (burst, then idle) drives all four frameworks
through the full decision lifecycle — threshold trip, scale-out,
sustained-low scale-in with drain completion, and explicit no-op ticks —
and the recorded :class:`DecisionTrace` must account for each step with
a source and a reason. Soft-resource cap changes (with the estimate
that justified them) are asserted for the frameworks that make them.
"""

import pytest

from repro.cloud.hypervisor import Hypervisor
from repro.control.bus import ControlBus
from repro.control.events import THRESHOLD_TRIP
from repro.control.trace import DecisionTrace
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, DB, WEB, NTierApplication, SoftResourceAllocation
from repro.scaling.actuator import Actuator
from repro.scaling.conscale import ConScaleController
from repro.scaling.dcm import DCMController, DcmTrainedProfile
from repro.scaling.ec2 import EC2AutoScaling
from repro.scaling.factory import ServerFactory
from repro.scaling.policy import TierPolicyConfig
from repro.scaling.predictive import PredictiveAutoScaling
from repro.sim.engine import Simulator

from tests.conftest import simple_capacity


def fast_configs():
    config = TierPolicyConfig(
        out_window=2.0, out_cooldown=2.0, in_sustain=3.0, in_cooldown=2.0,
        max_size=3,
    )
    return {APP: config, DB: config}


CONTROLLERS = {
    "ec2": lambda sim, wh, act: EC2AutoScaling(sim, wh, act, fast_configs()),
    "predictive": lambda sim, wh, act: PredictiveAutoScaling(
        sim, wh, act, fast_configs()
    ),
    "dcm": lambda sim, wh, act: DCMController(
        sim, wh, act, DcmTrainedProfile(app_optimal=20, db_optimal=8),
        fast_configs(),
    ),
    "conscale": lambda sim, wh, act: ConScaleController(
        sim, wh, act, None, fast_configs()
    ),
}


def run_lifecycle(framework: str, high_until: float = 8.0, until: float = 30.0):
    """Burst-then-idle run of one controller; returns its trace."""
    sim = Simulator()
    soft = SoftResourceAllocation(100, 60, 40)
    app = NTierApplication(sim, soft)
    factory = ServerFactory(sim)
    for tier in (WEB, APP, DB):
        factory.set_template(tier, simple_capacity(1000), soft.for_tier(tier))
    # 1.5 s prep: provisioning genuinely spans a decision tick, so the
    # in-flight guard is observable. (With a prep that lands exactly on
    # a tick instant, the completion — a model-priority event — settles
    # before the controller's same-instant tick reads the state.)
    hypervisor = Hypervisor(sim, prep_period=1.5)
    warehouse = MetricWarehouse(sim)
    bus = ControlBus()
    trace = DecisionTrace().attach(bus)
    actuator = Actuator(sim, app, hypervisor, factory, warehouse, bus)
    for tier in (WEB, APP, DB):
        actuator.bootstrap(tier, 1)
    # Synthetic smoothed-CPU signal: saturated during the burst, idle
    # afterwards. Replaces the warehouse aggregation only — collection,
    # registration, and fine-grained monitoring stay live.
    warehouse.tier_cpu = lambda tier, window=10.0: (
        0.95 if sim.now <= high_until else 0.05
    )
    controller = CONTROLLERS[framework](sim, warehouse, actuator)
    sim.run(until=until)
    controller.stop()
    return controller, trace


@pytest.mark.parametrize("framework", sorted(CONTROLLERS))
def test_full_lifecycle_is_traced(framework):
    controller, trace = run_lifecycle(framework)

    trips_out = [e for e in trace.of_kind(THRESHOLD_TRIP) if e.detail == "out"]
    assert trips_out, "burst must trip the scale-out threshold"
    assert all(e.source == controller.name for e in trips_out)
    assert all(e.reason for e in trips_out)

    started = trace.of_kind("scale_out_started")
    assert started and all(e.source == "actuator" for e in started)
    # the policy's reason rides along into the actuator event
    assert any("threshold" in e.reason or "predicted" in e.reason
               for e in started)
    assert trace.of_kind("scale_out_ready")

    trips_in = [e for e in trace.of_kind(THRESHOLD_TRIP) if e.detail == "in"]
    assert trips_in, "idle stretch must trip the scale-in threshold"
    assert all("sustained-low" in e.reason for e in trips_in)
    assert trace.of_kind("scale_in_started")
    done = trace.of_kind("scale_in_done")
    assert done and all(e.reason == "drain complete" for e in done)

    noops = trace.noops()
    assert noops, "do-nothing ticks must be recorded explicitly"
    assert all(e.reason for e in noops)
    assert all(e.source == controller.name for e in noops)
    # the in-flight guard produces its own distinct no-op reason
    assert any("in flight" in e.reason for e in noops)

    # events arrive in time order (synchronous bus inside the simulator)
    times = [e.time for e in trace]
    assert times == sorted(times)


def test_dcm_cap_changes_carry_reason_and_estimate():
    _, trace = run_lifecycle("dcm")
    app_caps = trace.of_kind("soft_app_threads")
    conn_caps = trace.of_kind("soft_db_connections")
    assert app_caps and conn_caps
    assert all("trained table" in e.reason for e in app_caps + conn_caps)
    assert all(e.estimate is not None for e in app_caps + conn_caps)
    assert app_caps[0].value == 20


def test_ec2_never_emits_soft_events():
    _, trace = run_lifecycle("ec2")
    assert not trace.of_kind(
        "soft_app_threads", "soft_db_connections", "soft_web_threads"
    )


def test_trace_rides_the_artifact():
    """End-to-end: a real run's artifact carries the bus-recorded trace,
    and ConScale's SCT-justified cap changes include the estimate."""
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import ScenarioConfig

    config = ScenarioConfig(
        name="events-test", trace_name="dual_phase", load_scale=100.0,
        duration=200.0, seed=11,
    )
    artifact = run_experiment("conscale", config)
    trace = artifact.actions
    assert trace.noops(), "artifact trace must include no-op ticks"
    sct_caps = [
        e for e in trace.of_kind("soft_db_connections", "soft_app_threads")
        if "SCT" in e.reason
    ]
    assert sct_caps, "ConScale must justify cap changes with SCT estimates"
    assert all(e.estimate is not None for e in sct_caps)
    sources = {e.source for e in trace}
    assert "actuator" in sources and "conscale" in sources
