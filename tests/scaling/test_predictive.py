"""Tests for the predictive (proactive) autoscaling baseline."""

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import ScenarioConfig
from repro.ntier.request import Request
from repro.scaling.policy import TierPolicyConfig
from repro.scaling.predictive import PredictiveAutoScaling

from tests.scaling.test_actuator import bootstrap_all, make_stack, recorded


def ramp_db_load(sim, app, rate_per_sec, duration, demand=1000.0):
    """Admit `rate_per_sec` long-running requests per second to the DB,
    producing a linearly rising utilisation ramp."""
    server = app.tiers["db"].servers[0]
    count = int(rate_per_sec * duration)
    for i in range(count):
        t = i / rate_per_sec

        def admit(i=i):
            req = Request(10_000 + i, "X", sim.now, {"db": demand})
            server.admit(req, demand, lambda x: None)

        sim.schedule(t, admit)


def test_predicted_cpu_extrapolates_trend():
    sim, app, actuator = make_stack(prep=15.0)
    bootstrap_all(sim, actuator)
    controller = PredictiveAutoScaling(
        sim, actuator.warehouse, actuator, {"db": TierPolicyConfig()},
    )
    assert controller.lead_time == 16.0  # the 15 s prep period + one tick
    controller.stop()  # probe the predictor without acting
    # utilisation rises ~0.02/s (20 new permanent requests/s, a_sat 1000)
    ramp_db_load(sim, app, rate_per_sec=20, duration=30)
    sim.run(until=30.0)
    current = actuator.warehouse.tier_cpu("db", 5.0)
    predicted = controller.predicted_cpu("db")
    assert predicted > current + 0.2  # ~0.02/s * 16 s lead
    assert predicted == pytest.approx(current + 0.02 * 16.0, abs=0.1)


def test_predictive_scales_before_threshold():
    sim, app, actuator = make_stack(prep=15.0)
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    PredictiveAutoScaling(
        sim, actuator.warehouse, actuator, {"db": TierPolicyConfig()},
    )
    ramp_db_load(sim, app, rate_per_sec=20, duration=40)
    sim.run(until=40.0)
    outs = trace.of_kind("scale_out_started")
    assert outs, "expected a proactive scale-out"
    t_first = outs[0].time
    # reactive crossing of 0.8 happens at ~40 s; proactive must fire
    # clearly earlier (armed from ~0.45, predicted crossing ~16 s ahead)
    assert t_first < 34.0, f"first scale-out at {t_first}s is not proactive"


def test_predictive_does_not_act_when_cold():
    sim, app, actuator = make_stack(prep=15.0)
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    PredictiveAutoScaling(
        sim, actuator.warehouse, actuator, {"db": TierPolicyConfig()},
    )
    # a steep *relative* trend at very low utilisation: 0 -> 0.2
    ramp_db_load(sim, app, rate_per_sec=10, duration=20)
    sim.run(until=20.0)
    assert not trace.of_kind("scale_out_started")


def test_predictive_framework_via_runner():
    config = ScenarioConfig(
        name="pred", trace_name="big_spike", load_scale=100.0,
        duration=250.0, seed=11,
    )
    reactive = run_experiment("ec2", config)
    proactive = run_experiment("predictive", config)
    # the proactive controller must begin scaling earlier on the spike ramp
    t_reactive = [a.time for a in reactive.actions.of_kind("scale_out_started")]
    t_proactive = [a.time for a in proactive.actions.of_kind("scale_out_started")]
    assert t_proactive and t_reactive
    assert min(t_proactive) <= min(t_reactive)
    # and never performs catastrophically worse
    assert proactive.tail().p99 <= reactive.tail().p99 * 1.5
