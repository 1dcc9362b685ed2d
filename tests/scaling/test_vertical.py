"""Tests for vertical scaling (scale-up) support."""

import pytest

from repro.errors import CloudError, ScalingError
from repro.ntier.request import Request

from tests.scaling.test_actuator import bootstrap_all, make_stack, recorded


def test_server_set_capacity_rerates_inflight_work():
    """A job halfway through doubles its speed when cores double."""
    from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
    from repro.ntier.server import Server, ServerConfig
    from repro.sim.engine import Simulator

    sim = Simulator()
    # a_sat=1: a single job runs at rate 1
    one_core = CapacityModel([Resource("cpu", 1.0, 1.0)], ContentionModel())
    server = Server(sim, ServerConfig("db-1", "db", one_core, 10))
    done_at = []
    # two active jobs with demand 2.0 each: PS rate 0.5/job
    for i in range(2):
        server.admit(
            Request(i, "X", 0.0, {"db": 2.0}),
            2.0,
            lambda x: done_at.append(sim.now),
        )
    # at t=2 each job has 1.0 work left at rate 0.5 (finish at t=4);
    # doubling cores doubles the PS rate -> finish at t=3
    sim.schedule(2.0, lambda: server.set_capacity(one_core.scaled_cores("cpu", 2.0)))
    sim.run()
    assert done_at == [pytest.approx(3.0), pytest.approx(3.0)]


def test_hypervisor_resize_requires_running():
    from repro.cloud.hypervisor import Hypervisor
    from repro.sim.engine import Simulator

    sim = Simulator()
    hv = Hypervisor(sim, prep_period=10.0)
    vm = hv.launch("db", lambda v: None)
    with pytest.raises(CloudError):
        hv.resize(vm, 2.0, lambda v: None)
    sim.run(until=11.0)
    resized = []
    hv.resize(vm, 2.0, resized.append)
    sim.run(until=14.0)
    assert resized == [vm]
    assert vm.vcpus == 2.0
    with pytest.raises(CloudError):
        hv.resize(vm, 0.0, lambda v: None)


def test_actuator_scale_up_doubles_capacity():
    sim, app, actuator = make_stack(prep=0.0)
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    server = app.tiers["db"].servers[0]
    before = server.capacity.saturation_concurrency
    assert actuator.scale_up("db", factor=2.0) is True
    sim.run(until=5.0)
    assert server.capacity.saturation_concurrency == pytest.approx(2 * before)
    kinds = [a.kind for a in trace if "scale_up" in a.kind]
    assert kinds == ["scale_up_started", "scale_up_done"]


def test_actuator_scale_up_respects_cap():
    sim, app, actuator = make_stack(prep=0.0)
    bootstrap_all(sim, actuator)
    assert actuator.scale_up("db", factor=2.0, max_vcpus=2.0) is True
    sim.run(until=5.0)
    # at the cap now: further scale-up refused
    assert actuator.scale_up("db", factor=2.0, max_vcpus=2.0) is False


def test_actuator_scale_up_validation():
    sim, app, actuator = make_stack(prep=0.0)
    bootstrap_all(sim, actuator)
    with pytest.raises(ScalingError):
        actuator.scale_up("db", factor=1.0)


def test_scale_up_notifies_and_resets_history():
    sim, app, actuator = make_stack(prep=0.0)
    bootstrap_all(sim, actuator)
    sim.run(until=3.0)  # accumulate some fine samples
    server_name = app.tiers["db"].servers[0].name
    assert len(actuator.warehouse.fine_samples(server_name, window=10.0))
    events = []
    actuator.bus.subscribe(lambda e: events.append(e.kind))
    actuator.scale_up("db")
    sim.run(until=6.0)
    assert "scale_up_done" in events
    # history dropped at the resize instant; only post-resize samples remain
    samples = actuator.warehouse.fine_samples(server_name, window=10.0)
    assert (samples.t_end >= 5.0).all()


def test_vertical_first_controller_prefers_scale_up():
    from repro.scaling.ec2 import EC2AutoScaling
    from repro.scaling.policy import TierPolicyConfig
    from tests.scaling.test_policy import load_db

    sim, app, actuator = make_stack(prep=0.0)
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    config = TierPolicyConfig(
        prefer_vertical=True, max_vcpus=2.0, out_cooldown=5.0
    )
    EC2AutoScaling(sim, actuator.warehouse, actuator, {"db": config})
    load_db(app, 900)  # util 0.9 on the a_sat=1000 test server
    sim.run(until=10.0)
    ups = trace.of_kind("scale_up_done")
    assert ups, "expected a vertical scale-up first"
    assert not trace.of_kind("scale_out_started")
    # once at the vCPU cap, the next breach adds a VM instead
    load_db(app, 1200)
    sim.run(until=25.0)
    assert trace.of_kind("scale_out_started")
