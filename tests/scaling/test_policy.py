"""Tests for the threshold-based scaling policy."""

import pytest

from repro.errors import ConfigurationError
from repro.ntier.request import Request
from repro.scaling.policy import ThresholdPolicy, TierPolicyConfig

from tests.scaling.test_actuator import bootstrap_all, make_stack


def make_policy(sim, actuator, **cfg_kw):
    config = TierPolicyConfig(**cfg_kw)
    return ThresholdPolicy(
        sim, actuator.warehouse, actuator, {"db": config}
    )


def load_db(app, n, demand=1000.0):
    """Put n long-running requests directly on the db server."""
    server = app.tiers["db"].servers[0]
    for i in range(n):
        server.admit(
            Request(1000 + i, "X", 0.0, {"db": demand}),
            demand,
            lambda x: None,
            release=True,
        )


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TierPolicyConfig(high_threshold=0.5, low_threshold=0.6)
    with pytest.raises(ConfigurationError):
        TierPolicyConfig(min_size=0)
    with pytest.raises(ConfigurationError):
        TierPolicyConfig(min_size=5, max_size=2)


def test_scale_out_on_high_cpu():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    policy = make_policy(sim, actuator)
    # db server a_sat = 1000 -> 900 active requests = util 0.9
    load_db(app, 900)
    sim.run(until=6.0)  # let the warehouse collect samples
    assert policy.decide("db") == "out"


def test_no_scale_out_below_threshold():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    policy = make_policy(sim, actuator)
    load_db(app, 500)  # util 0.5
    sim.run(until=6.0)
    assert policy.decide("db") is None


def test_out_cooldown_blocks_repeat():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    policy = make_policy(sim, actuator, out_cooldown=20.0)
    load_db(app, 900)
    sim.run(until=6.0)
    assert policy.decide("db") == "out"
    policy.note_action("db", "out")
    sim.run(until=10.0)
    assert policy.decide("db") is None  # cooling down
    sim.run(until=27.0)
    assert policy.decide("db") == "out"


def test_no_action_while_in_flight():
    sim, app, actuator = make_stack(prep=15.0)
    bootstrap_all(sim, actuator)
    policy = make_policy(sim, actuator)
    load_db(app, 900)
    sim.run(until=6.0)
    actuator.scale_out("db")
    assert policy.decide("db") is None


def test_max_size_respected():
    sim, app, actuator = make_stack(prep=0.1)
    bootstrap_all(sim, actuator)
    policy = make_policy(sim, actuator, max_size=1)
    load_db(app, 900)
    sim.run(until=6.0)
    assert policy.decide("db") is None


def test_scale_in_requires_sustained_low():
    sim, app, actuator = make_stack(prep=0.1)
    bootstrap_all(sim, actuator)
    actuator.scale_out("db")
    sim.run(until=1.0)
    policy = make_policy(sim, actuator, in_sustain=10.0, in_cooldown=5.0)
    # idle db tier: low utilisation from the start
    for t in range(2, 9):
        sim.run(until=float(t))
        assert policy.decide("db") is None  # not sustained long enough
    sim.run(until=13.0)
    assert policy.decide("db") == "in"


def test_scale_in_never_below_min_size():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    policy = make_policy(sim, actuator, in_sustain=1.0, in_cooldown=1.0)
    sim.run(until=10.0)
    assert policy.decide("db") is None  # size == min_size == 1


def test_pressure_triggers_scale_out_with_warm_cpu():
    """Hybrid threshold: deep admission queues + warm CPU scale out even
    when the CPU mean sits below the high threshold."""
    sim, app, actuator = make_stack(soft=None)
    bootstrap_all(sim, actuator)
    # cap db connections low, then swamp the conn pool queue
    actuator.set_db_connections(7)
    policy = make_policy(sim, actuator, pressure_ratio=0.5, pressure_cpu=0.6)
    pool = app.conn_pools["app-1"]
    for i in range(7 + 10):
        pool.acquire(object(), lambda tok: None)
    # make the db CPU warm (0.7): 700 active on a_sat=1000
    load_db(app, 700)
    sim.run(until=6.0)
    assert pool.queued >= 5
    assert policy.decide("db") == "out"


def test_note_action_validates_direction():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    policy = make_policy(sim, actuator)
    with pytest.raises(ConfigurationError):
        policy.note_action("db", "sideways")
