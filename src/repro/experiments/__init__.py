"""Experiment harness: calibration, scenarios, engine, figures, reports."""

from repro.experiments.artifact import (
    FineSeries,
    RunArtifact,
    RunOverrides,
    RunSpec,
)
from repro.experiments.calibration import (
    Calibration,
    app_capacity,
    db_capacity_cpu,
    db_capacity_io,
    default_calibration,
    web_capacity,
)
from repro.experiments.diff import ArtifactDiff, diff_artifacts
from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.runner import execute_spec, run_experiment
from repro.experiments.scenarios import ScenarioConfig

__all__ = [
    "Calibration",
    "app_capacity",
    "db_capacity_cpu",
    "db_capacity_io",
    "default_calibration",
    "web_capacity",
    "ExperimentEngine",
    "ResultCache",
    "ArtifactDiff",
    "diff_artifacts",
    "RunSpec",
    "RunOverrides",
    "RunArtifact",
    "FineSeries",
    "run_experiment",
    "execute_spec",
    "ScenarioConfig",
]
