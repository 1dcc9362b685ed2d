"""The control-plane event bus.

A tiny synchronous publish/subscribe hub for
:class:`~repro.control.events.DecisionEvent`\\ s, the one event type of
the control plane. The policy, actuator, fault injector, mode governor
and every controller publish; the
:class:`~repro.control.trace.DecisionTrace` subscribes and records them,
and controllers hear completed hardware actions and fault lifecycle
events through their own subscription.

Delivery is synchronous and in subscription order — the bus runs inside
the discrete-event simulator, so introducing its own asynchrony would
break determinism. Handlers must not raise: an exception propagates to
the publisher (loudly, by design — a broken recorder should fail the
run, not silently drop decisions).
"""

from __future__ import annotations

from typing import Callable

from repro.control.events import DecisionEvent

__all__ = ["ControlBus"]


class ControlBus:
    """Synchronous publish/subscribe for control-plane decision events."""

    def __init__(self) -> None:
        self._handlers: list[Callable[[DecisionEvent], None]] = []

    def subscribe(self, handler: Callable[[DecisionEvent], None]) -> None:
        """Register ``handler``; it hears every later event, after the
        handlers registered before it."""
        self._handlers.append(handler)

    def publish(self, event: DecisionEvent) -> None:
        """Deliver ``event`` to every subscriber in subscription order."""
        for handler in self._handlers:
            handler(event)
