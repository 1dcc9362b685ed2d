"""Unit tests for the control-plane event bus."""

import pytest

from repro.control.bus import ControlBus
from repro.control.events import DecisionEvent


def decision(t=1.0, kind="noop", tier="app", **kw):
    return DecisionEvent(time=t, kind=kind, tier=tier, **kw)


def test_publish_reaches_subscribers_in_order():
    bus = ControlBus()
    seen = []
    bus.subscribe(lambda e: seen.append(("first", e)))
    bus.subscribe(lambda e: seen.append(("second", e)))
    event = decision()
    bus.publish(event)
    assert seen == [("first", event), ("second", event)]


def test_nested_publish_is_delivered_before_the_outer_event_continues():
    # A handler that publishes (a controller reacting to a hardware
    # change) has its event delivered to every subscriber, the earlier
    # ones included, before later subscribers see the outer event.
    bus = ControlBus()
    seen = []
    outer, inner = decision(kind="scale_out_ready"), decision(kind="noop")
    bus.subscribe(lambda e: seen.append(("trace", e.kind)))

    def react(e):
        seen.append(("controller", e.kind))
        if e is outer:
            bus.publish(inner)

    bus.subscribe(react)
    bus.subscribe(lambda e: seen.append(("governor", e.kind)))
    bus.publish(outer)
    assert seen == [
        ("trace", "scale_out_ready"),
        ("controller", "scale_out_ready"),
        ("trace", "noop"),
        ("controller", "noop"),
        ("governor", "noop"),
        ("governor", "scale_out_ready"),
    ]


def test_publish_without_subscribers_is_a_noop():
    ControlBus().publish(decision())  # must not raise


def test_handler_exceptions_propagate_to_publisher():
    bus = ControlBus()

    def broken(_event):
        raise RuntimeError("recorder broke")

    bus.subscribe(broken)
    with pytest.raises(RuntimeError):
        bus.publish(decision())
