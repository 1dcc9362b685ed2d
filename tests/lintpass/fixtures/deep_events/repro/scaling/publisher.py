"""Fixture publisher: emits through helpers and one literal kind."""

from repro.control.events import DEFAULTED_KIND, THRESHOLD_TRIP, DecisionEvent


class BusClient:
    def __init__(self) -> None:
        self.outbox: list[DecisionEvent] = []

    def _publish(self, kind: str) -> None:
        self.outbox.append(DecisionEvent(0.0, kind))

    def nudge(self, kind: str = DEFAULTED_KIND) -> None:
        self._publish(kind)

    def tick(self) -> None:
        self._publish(THRESHOLD_TRIP)
        # Helper-forwarded and undeclared: the deep finding to plant.
        self._publish("mystery_kind")
        # No argument: the *default* kind must count as emitted.
        self.nudge()
        # Literal and undeclared, straight into the constructor.
        self.outbox.append(DecisionEvent(0.0, "scale_sideways"))
