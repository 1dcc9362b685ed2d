"""Tests for load balancing and tier membership."""

import pytest

from repro.errors import ConfigurationError, ScalingError
from repro.ntier.balancer import LeastConnBalancer, RoundRobinBalancer, make_balancer
from repro.ntier.server import Server, ServerConfig
from repro.ntier.tier import Tier
from repro.sim.engine import Simulator

from tests.conftest import simple_capacity


def make_servers(sim, n, tier="app", threads=10):
    return [
        Server(sim, ServerConfig(f"{tier}-{i + 1}", tier, simple_capacity(), threads))
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# balancers
# ----------------------------------------------------------------------

def test_round_robin_cycles():
    sim = Simulator()
    servers = make_servers(sim, 3)
    rr = RoundRobinBalancer()
    picks = [rr.pick(servers).name for _ in range(6)]
    assert picks == ["app-1", "app-2", "app-3", "app-1", "app-2", "app-3"]


def test_round_robin_empty_raises():
    with pytest.raises(ConfigurationError):
        RoundRobinBalancer().pick([])


def test_leastconn_prefers_least_loaded():
    sim = Simulator()
    servers = make_servers(sim, 2)
    from repro.ntier.request import Request

    req = Request(0, "X", 0.0, {"app": 1.0})
    servers[0].admit(req, 0.0, lambda r: None)
    lc = LeastConnBalancer()
    assert lc.pick(servers).name == "app-2"


def test_leastconn_counts_queued():
    sim = Simulator()
    servers = make_servers(sim, 2, threads=1)
    from repro.ntier.request import Request

    # two requests to server 0: one admitted, one queued
    for i in range(2):
        servers[0].admit(Request(i, "X", 0.0, {"app": 1.0}), 0.0, lambda r: None)
    servers[1].admit(Request(2, "X", 0.0, {"app": 1.0}), 0.0, lambda r: None)
    # server0 load=2, server1 load=1
    assert LeastConnBalancer().pick(servers).name == "app-2"


def test_leastconn_tie_breaks_by_position():
    sim = Simulator()
    servers = make_servers(sim, 3)
    assert LeastConnBalancer().pick(servers).name == "app-1"


def test_make_balancer():
    assert isinstance(make_balancer("roundrobin"), RoundRobinBalancer)
    assert isinstance(make_balancer("leastconn"), LeastConnBalancer)
    with pytest.raises(ConfigurationError):
        make_balancer("random")


# ----------------------------------------------------------------------
# tiers
# ----------------------------------------------------------------------

def test_tier_add_and_route():
    sim = Simulator()
    tier = Tier("app")
    s1, s2 = make_servers(sim, 2)
    tier.add_server(s1)
    tier.add_server(s2)
    assert tier.size == 2
    assert tier.route() in (s1, s2)


def test_tier_rejects_wrong_tier_server():
    sim = Simulator()
    tier = Tier("db")
    (s,) = make_servers(sim, 1, tier="app")
    with pytest.raises(ConfigurationError):
        tier.add_server(s)


def test_tier_rejects_duplicate_name():
    sim = Simulator()
    tier = Tier("app")
    (s,) = make_servers(sim, 1)
    tier.add_server(s)
    dup = Server(sim, ServerConfig("app-1", "app", simple_capacity(), 10))
    with pytest.raises(ScalingError):
        tier.add_server(dup)


def test_drain_defaults_to_newest():
    sim = Simulator()
    tier = Tier("app")
    s1, s2 = make_servers(sim, 2)
    tier.add_server(s1)
    tier.add_server(s2)
    drained = tier.begin_drain()
    assert drained is s2
    assert tier.size == 1
    assert tier.draining == [s2]


def test_cannot_drain_last_server():
    sim = Simulator()
    tier = Tier("app")
    (s1,) = make_servers(sim, 1)
    tier.add_server(s1)
    with pytest.raises(ScalingError):
        tier.begin_drain()


def test_drain_unknown_server_raises():
    sim = Simulator()
    tier = Tier("app")
    s1, s2 = make_servers(sim, 2)
    tier.add_server(s1)
    with pytest.raises(ScalingError):
        tier.begin_drain(s2)


def test_collect_drained_waits_for_idle():
    sim = Simulator()
    tier = Tier("app")
    s1, s2 = make_servers(sim, 2)
    tier.add_server(s1)
    tier.add_server(s2)
    from repro.ntier.request import Request

    req = Request(0, "X", 0.0, {"app": 1.0})
    s2.admit(req, 0.0, lambda r: None)
    tier.begin_drain(s2)
    assert tier.collect_drained() == []  # still busy
    s2.release(req)
    assert tier.collect_drained() == [s2]
    assert tier.draining == []

