"""Fixture frozen flows: a rooted helper (legal), an alias, a setattr."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Plan:
    slot: float
    label: str

    def __post_init__(self) -> None:
        self._normalise()

    def _normalise(self) -> None:
        # Only ever called from __post_init__: the rule must stay quiet
        # here although the call sits outside __post_init__ itself.
        object.__setattr__(self, "label", self.label.strip())


def retag(plan: Plan) -> Plan:
    setattr(plan, "label", "retagged")
    return plan


def sneak(plan: Plan) -> None:
    mut = object.__setattr__
    mut(plan, "slot", 0.0)
