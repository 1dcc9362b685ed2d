"""Fixture trace: rebuilds stored events from their rows."""

from repro.control.events import DecisionEvent


class Trace:
    def __init__(self) -> None:
        self.rows: list[tuple[float, str]] = []

    def events(self) -> list[DecisionEvent]:
        # A replay of stored rows, not an emission: the graph stays
        # complete, so the ghost-kind proof still runs.
        return [DecisionEvent(*row) for row in self.rows]
