"""The control-plane event bus.

A tiny synchronous publish/subscribe hub keyed by event *type*. The
policy, actuator and every controller publish
:class:`~repro.control.events.DecisionEvent`\\ s; the
:class:`~repro.control.trace.DecisionTrace` subscribes and records them.

Delivery is synchronous and in subscription order — the bus runs inside
the discrete-event simulator, so introducing its own asynchrony would
break determinism. Handlers must not raise: an exception propagates to
the publisher (loudly, by design — a broken recorder should fail the
run, not silently drop decisions).
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["ControlBus"]

E = TypeVar("E")


class ControlBus:
    """Synchronous, type-keyed publish/subscribe for control events."""

    def __init__(self) -> None:
        self._handlers: dict[type, list[Callable]] = {}

    def subscribe(self, event_type: type[E], handler: Callable[[E], None]) -> None:
        """Register ``handler`` for events of exactly ``event_type``."""
        self._handlers.setdefault(event_type, []).append(handler)

    def unsubscribe(self, event_type: type[E], handler: Callable[[E], None]) -> None:
        """Remove a previously registered handler (no-op if absent)."""
        handlers = self._handlers.get(event_type)
        if handlers and handler in handlers:
            handlers.remove(handler)

    def publish(self, event: object) -> None:
        """Deliver ``event`` to every subscriber of its exact type."""
        for handler in self._handlers.get(type(event), ()):
            handler(event)
