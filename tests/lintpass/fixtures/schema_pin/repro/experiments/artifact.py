"""Fixture: a frozen RunSpec closure with its schema version and pin."""

import hashlib
from dataclasses import dataclass, field

from repro.experiments.scenarios import ScenarioConfig

SCHEMA_VERSION = 3

SCHEMA_FINGERPRINT = "65dc7e2959a2d58aac85368ab9d5fb904279de51454a6948ec2144be9ed36900"


@dataclass(frozen=True)
class RunSpec:
    framework: str
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def digest(self) -> str:
        payload = repr(("runspec", SCHEMA_VERSION, self)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()
