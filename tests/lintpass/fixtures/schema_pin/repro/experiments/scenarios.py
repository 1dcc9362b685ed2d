"""Fixture: the scenario half of a small digested-spec closure."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 1
    duration: float = 60.0
