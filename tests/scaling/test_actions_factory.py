"""Tests for the decision trace's append surface and the server factory."""

import pytest

from repro.control.events import DecisionEvent
from repro.control.trace import DecisionTrace
from repro.errors import ConfigurationError
from repro.scaling.factory import ServerFactory
from repro.sim.engine import Simulator

from tests.conftest import simple_capacity


# ----------------------------------------------------------------------
# DecisionTrace.append
# ----------------------------------------------------------------------

def test_record_and_query():
    log = DecisionTrace()
    log.append(DecisionEvent(1.0, "scale_out_started", "db", detail="db-vm1"))
    log.append(DecisionEvent(16.0, "scale_out_ready", "db", detail="db-2"))
    log.append(DecisionEvent(20.0, "soft_db_connections", "app", value=12))
    assert len(log) == 3
    assert [a.kind for a in log.of_kind("scale_out_ready")] == ["scale_out_ready"]
    assert len(log.for_tier("db")) == 2
    assert log.scale_out_times("db") == [16.0]


def test_render_contains_values():
    log = DecisionTrace()
    log.append(DecisionEvent(2.5, "soft_app_threads", "app", value=30))
    text = DecisionTrace.render(log.all())
    assert "soft_app_threads" in text
    assert "30" in text


def test_iteration_order_is_insertion():
    log = DecisionTrace()
    for t in (3.0, 1.0, 2.0):  # log is append-only, keeps call order
        log.append(DecisionEvent(t, "x", "db"))
    assert [a.time for a in log] == [3.0, 1.0, 2.0]


# ----------------------------------------------------------------------
# ServerFactory
# ----------------------------------------------------------------------

def test_factory_creates_numbered_servers():
    sim = Simulator()
    factory = ServerFactory(sim)
    factory.set_template("db", simple_capacity(), 40)
    a = factory.create("db")
    b = factory.create("db")
    assert (a.name, b.name) == ("db-1", "db-2")
    assert a.threads.limit == 40
    assert a.tier == "db"


def test_factory_requires_template():
    factory = ServerFactory(Simulator())
    with pytest.raises(ConfigurationError):
        factory.create("db")
    with pytest.raises(ConfigurationError):
        factory.thread_limit("db")


def test_factory_thread_limit_update():
    sim = Simulator()
    factory = ServerFactory(sim)
    factory.set_template("app", simple_capacity(), 60)
    factory.set_thread_limit("app", 25)
    assert factory.thread_limit("app") == 25
    assert factory.create("app").threads.limit == 25
    with pytest.raises(ConfigurationError):
        factory.set_thread_limit("app", 0)


def test_factory_validation():
    factory = ServerFactory(Simulator())
    with pytest.raises(ConfigurationError):
        factory.set_template("db", simple_capacity(), 0)


def test_template_replacement_affects_future_only():
    sim = Simulator()
    factory = ServerFactory(sim)
    factory.set_template("db", simple_capacity(a_sat=10), 40)
    before = factory.create("db")
    factory.set_template("db", simple_capacity(a_sat=20), 40)
    after = factory.create("db")
    assert before.capacity.saturation_concurrency == pytest.approx(10)
    assert after.capacity.saturation_concurrency == pytest.approx(20)
