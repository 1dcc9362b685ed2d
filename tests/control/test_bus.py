"""Unit tests for the control-plane event bus."""

import pytest

from repro.control.bus import ControlBus
from repro.control.events import DecisionEvent


def decision(t=1.0, kind="noop", tier="app", **kw):
    return DecisionEvent(time=t, kind=kind, tier=tier, **kw)


def test_publish_reaches_subscribers_in_order():
    bus = ControlBus()
    seen = []

    def first(e):
        seen.append(("first", e))

    bus.subscribe(DecisionEvent, first)
    bus.subscribe(DecisionEvent, lambda e: seen.append(("second", e)))
    event = decision()
    bus.publish(event)
    assert seen == [("first", event), ("second", event)]
    bus.unsubscribe(DecisionEvent, first)
    bus.publish(event)
    assert seen[2:] == [("second", event)]


class OtherEvent:
    pass


class DecisionSubclass(DecisionEvent):
    __slots__ = ()


def test_dispatch_is_keyed_by_exact_type():
    bus = ControlBus()
    decisions, others = [], []
    bus.subscribe(DecisionEvent, decisions.append)
    bus.subscribe(OtherEvent, others.append)
    bus.publish(decision())
    bus.publish(OtherEvent())
    # A subclass instance is a different key: no DecisionEvent handler.
    bus.publish(DecisionSubclass(time=1.0, kind="noop", tier="app"))
    assert len(decisions) == 1 and len(others) == 1


def test_publish_without_subscribers_is_a_noop():
    ControlBus().publish(decision())  # must not raise


def test_unsubscribe_unknown_handler_is_a_noop():
    bus = ControlBus()
    bus.unsubscribe(DecisionEvent, lambda e: None)  # must not raise


def test_handler_exceptions_propagate_to_publisher():
    bus = ControlBus()

    def broken(_event):
        raise RuntimeError("recorder broke")

    bus.subscribe(DecisionEvent, broken)
    with pytest.raises(RuntimeError):
        bus.publish(decision())
