"""Tests for per-server soft-resource actuation (heterogeneous fleets)."""

import pytest

from repro.errors import ScalingError
from repro.ntier.app import APP
from repro.scaling.conscale import ConScaleController
from repro.scaling.estimator import TierEstimate
from repro.sct.model import SCTEstimate

from tests.scaling.test_actuator import bootstrap_all, make_stack, recorded


def make_server_estimate(optimal, saturated=True, hw=True):
    return SCTEstimate(
        q_lower=optimal, q_upper=optimal + 5, tp_max=100.0, optimal=optimal,
        ascending_observed=True, saturation_observed=saturated,
        plateau_util=0.95 if hw else 0.3, hardware_limited=hw,
        sla_met=True, n_tuples=100,
    )


class FakeEstimator:
    """Returns a scripted TierEstimate per tier."""

    def __init__(self, by_tier):
        self.by_tier = by_tier

    def estimate_tier(self, tier):
        return self.by_tier.get(tier)


def make_tier_estimate(tier, per_server):
    optima = [e.optimal for e in per_server.values()]
    actionable = any(
        e.saturation_observed and e.hardware_limited for e in per_server.values()
    )
    return TierEstimate(
        tier=tier, time=0.0,
        optimal=int(sorted(optima)[len(optima) // 2]),
        q_upper=max(e.q_upper for e in per_server.values()),
        saturation_observed=actionable,
        hardware_limited=actionable,
        plateau_hot=actionable,
        per_server=per_server,
    )


# ----------------------------------------------------------------------
# actuator-level
# ----------------------------------------------------------------------

def test_set_app_threads_for_targets_one_server():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator, (1, 2, 1))
    actuator.set_app_threads_for("app-2", 25)
    servers = {s.name: s.threads.limit for s in app.tiers[APP].servers}
    assert servers == {"app-1": 60, "app-2": 25}
    # template default untouched
    assert actuator.factory.thread_limit(APP) == 60


def test_set_app_threads_for_unknown_server():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    with pytest.raises(ScalingError):
        actuator.set_app_threads_for("app-9", 25)
    with pytest.raises(ScalingError):
        actuator.set_app_threads_for("app-1", 0)


def test_set_app_threads_for_noop_not_logged():
    sim, app, actuator = make_stack()
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    n = len(trace)
    actuator.set_app_threads_for("app-1", 60)  # already 60
    assert len(trace) == n


# ----------------------------------------------------------------------
# controller-level
# ----------------------------------------------------------------------

def test_conscale_per_server_actuation():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator, (1, 2, 1))
    per_server = {
        "app-1": make_server_estimate(20),
        "app-2": make_server_estimate(40),  # e.g. scaled-up instance
    }
    controller = ConScaleController(
        sim, actuator.warehouse, actuator,
        estimator=FakeEstimator({APP: make_tier_estimate(APP, per_server)}),
        per_server_app=True,
    )
    controller._adapt(force=True)
    limits = {s.name: s.threads.limit for s in app.tiers[APP].servers}
    assert limits["app-1"] == 23  # ceil(20 * 1.15)
    assert limits["app-2"] == 46  # ceil(40 * 1.15)


def test_per_server_skips_non_actionable_servers():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator, (1, 2, 1))
    per_server = {
        "app-1": make_server_estimate(20),
        "app-2": make_server_estimate(10, saturated=False),  # unsaturated
    }
    controller = ConScaleController(
        sim, actuator.warehouse, actuator,
        estimator=FakeEstimator({APP: make_tier_estimate(APP, per_server)}),
        per_server_app=True,
    )
    controller._adapt(force=True)
    limits = {s.name: s.threads.limit for s in app.tiers[APP].servers}
    assert limits["app-1"] == 23
    assert limits["app-2"] == 60  # untouched static default


def test_per_server_disabled_uses_uniform_path():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator, (1, 2, 1))
    per_server = {
        "app-1": make_server_estimate(20),
        "app-2": make_server_estimate(40),
    }
    controller = ConScaleController(
        sim, actuator.warehouse, actuator,
        estimator=FakeEstimator({APP: make_tier_estimate(APP, per_server)}),
        per_server_app=False,
    )
    controller._adapt(force=True)
    limits = {s.threads.limit for s in app.tiers[APP].servers}
    assert len(limits) == 1  # uniform actuation
