"""Tests for the tier estimator and DCM's offline profiling."""

import pytest

from repro.errors import ConfigurationError
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.scaling.dcm import DcmTrainedProfile, offline_profile
from repro.scaling.estimator import OptimalConcurrencyEstimator
from repro.sct.model import SCTModel
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# offline profiling (DCM training)
# ----------------------------------------------------------------------

def capacity(a_sat=10.0, sigma=3e-3, kappa=2e-4):
    return CapacityModel(
        [Resource("cpu", 1.0, 1.0 / a_sat)], ContentionModel(sigma, kappa)
    )


def test_offline_profile_finds_knee():
    q = offline_profile(capacity(a_sat=10), mean_demand=0.01)
    assert 8 <= q <= 11


def test_offline_profile_scales_with_cores():
    q1 = offline_profile(capacity(a_sat=10), 0.01)
    q2 = offline_profile(capacity(a_sat=20), 0.01)
    assert q2 >= 1.7 * q1


def test_offline_profile_blocking_share_inflates_threads():
    q_leaf = offline_profile(capacity(a_sat=10), 0.01, blocking_share=0.0)
    q_blocked = offline_profile(capacity(a_sat=10), 0.01, blocking_share=0.5)
    assert q_blocked == pytest.approx(q_leaf * 2, abs=1)


def test_offline_profile_validation():
    with pytest.raises(ConfigurationError):
        offline_profile(capacity(), 0.0)
    with pytest.raises(ConfigurationError):
        offline_profile(capacity(), 0.01, blocking_share=1.0)


def test_trained_profile_validation():
    with pytest.raises(ConfigurationError):
        DcmTrainedProfile(app_optimal=0, db_optimal=10)
    profile = DcmTrainedProfile(app_optimal=30, db_optimal=10, trained_on="x")
    assert profile.trained_on == "x"


# ----------------------------------------------------------------------
# tier estimator over warehouse data
# ----------------------------------------------------------------------

def drive_server_through_levels(sim, server, levels, dwell, demand=0.01):
    """Closed-loop-ish load: keep `level` requests active in the server
    for `dwell` seconds each by refilling on completion."""
    state = {"target": 0, "next_id": 0}

    def refill(r=None):
        while server.admitted < state["target"]:
            req = Request(state["next_id"], "X", sim.now, {"db": demand})
            state["next_id"] += 1
            server.admit(req, demand, refill, release=True)

    for i, level in enumerate(levels):
        def set_level(level=level):
            state["target"] = level
            refill()
        sim.schedule_after(i * dwell, set_level)


def test_estimator_on_live_server():
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.05)
    server = Server(
        sim, ServerConfig("db-1", "db", capacity(a_sat=10, kappa=1e-3), 10_000)
    )
    wh.register_server(server)
    est = OptimalConcurrencyEstimator(wh, SCTModel(min_samples=4), window=200.0)
    levels = [2, 4, 6, 8, 10, 12, 16, 20, 28, 40]
    drive_server_through_levels(sim, server, levels, dwell=3.0)
    sim.run(until=30.0)
    tier_est = est.estimate_tier("db")
    assert tier_est is not None
    assert tier_est.saturation_observed
    assert tier_est.hardware_limited
    assert 8 <= tier_est.optimal <= 13
    assert tier_est.actionable


def test_estimator_returns_none_without_servers():
    sim = Simulator()
    wh = MetricWarehouse(sim)
    est = OptimalConcurrencyEstimator(wh)
    assert est.estimate_tier("db") is None


def test_estimator_history():
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.05)
    server = Server(
        sim, ServerConfig("db-1", "db", capacity(a_sat=10, kappa=1e-3), 10_000)
    )
    wh.register_server(server)
    est = OptimalConcurrencyEstimator(wh, SCTModel(min_samples=4), window=200.0)
    drive_server_through_levels(sim, server, [2, 6, 10, 16, 28], dwell=3.0)
    sim.run(until=15.0)
    assert est.last("db") is None
    first = est.estimate_tier("db")
    assert est.last("db") is first
    assert est.history("db") == [first]


def test_estimator_window_validation():
    sim = Simulator()
    wh = MetricWarehouse(sim)
    with pytest.raises(Exception):
        OptimalConcurrencyEstimator(wh, window=0.0)


def test_drift_check_trims_stale_half():
    """When a server's capacity doubles mid-window, the drift-aware
    estimator must discard the pre-shift scatter and estimate the NEW
    optimum, while the naive estimator blends both halves."""
    sim = Simulator()
    wh = MetricWarehouse(sim, fine_interval=0.05)
    server = Server(
        sim, ServerConfig("db-1", "db", capacity(a_sat=10, kappa=1e-3), 10_000)
    )
    wh.register_server(server)
    est = OptimalConcurrencyEstimator(
        wh, SCTModel(min_samples=4), window=300.0,
        drift_check=True,
    )
    # one continuous level schedule; the capacity doubles at t=20, so
    # the second half of the schedule traces the 2x curve
    levels = [2, 4, 6, 8, 10, 12, 16, 20, 28, 40] + \
             [4, 8, 12, 16, 20, 24, 32, 44, 60]
    drive_server_through_levels(sim, server, levels, dwell=2.0)
    sim.schedule(
        20.0, lambda: server.set_capacity(server.capacity.scaled_cores("cpu", 2.0))
    )
    sim.run(until=40.0)
    tier_est = est.estimate_tier("db")
    assert est.drift_events >= 1
    assert tier_est is not None
    # the 2x optimum is ~20; a blended estimate would sit near 10
    assert tier_est.optimal >= 15, (
        f"estimate {tier_est.optimal} still dominated by stale scatter"
    )
