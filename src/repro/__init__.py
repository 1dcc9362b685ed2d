"""repro — a reproduction of "Mitigating Large Response Time
Fluctuations through Fast Concurrency Adapting in Clouds" (IPDPS 2020).

The package provides:

* :mod:`repro.sct` — the paper's Scatter-Concurrency-Throughput model,
  an online estimator of each server's rational concurrency range;
* :mod:`repro.scaling` — the ConScale framework plus the
  EC2-AutoScaling and DCM baselines;
* :mod:`repro.ntier`, :mod:`repro.workload`, :mod:`repro.monitoring`,
  :mod:`repro.cloud` — the simulated RUBBoS-style 3-tier testbed the
  controllers run against;
* :mod:`repro.control` — the control-plane event bus: every controller
  decision flows through it and is recorded in a
  :class:`~repro.control.trace.DecisionTrace` (diffable via
  ``repro diff``);
* :mod:`repro.experiments` — calibrated scenarios and per-figure
  harnesses regenerating every table and figure of the paper.

Quickstart::

    from repro import ScenarioConfig, run_experiment

    config = ScenarioConfig(trace_name="big_spike", load_scale=50)
    ec2 = run_experiment("ec2", config)
    ours = run_experiment("conscale", config)
    print(ec2.tail().p99, ours.tail().p99)
"""

from repro.control.bus import ControlBus
from repro.control.events import DecisionEvent, TelemetryEvent
from repro.control.trace import DecisionTrace
from repro.errors import ReproError
from repro.experiments.artifact import RunArtifact, RunOverrides, RunSpec
from repro.experiments.diff import ArtifactDiff, diff_artifacts
from repro.experiments.engine import ExperimentEngine
from repro.experiments.runner import execute_spec, run_experiment
from repro.experiments.scenarios import ScenarioConfig
from repro.ntier.app import NTierApplication, SoftResourceAllocation
from repro.rng import RngRegistry
from repro.scaling.conscale import ConScaleController
from repro.scaling.dcm import DCMController, DcmTrainedProfile
from repro.scaling.ec2 import EC2AutoScaling
from repro.scaling.mpc import MPCHybridController
from repro.scaling.predictive import PredictiveAutoScaling
from repro.scaling.qos import QoSRobustController
from repro.scaling.registry import (
    ControllerContext,
    ControllerSpec,
    ParamSpec,
    get_controller,
    register_controller,
    registered_frameworks,
)
from repro.sct.model import SCTEstimate, SCTModel
from repro.sim.engine import Simulator

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ControlBus",
    "DecisionEvent",
    "TelemetryEvent",
    "DecisionTrace",
    "ArtifactDiff",
    "diff_artifacts",
    "ExperimentEngine",
    "RunSpec",
    "RunOverrides",
    "RunArtifact",
    "run_experiment",
    "execute_spec",
    "ScenarioConfig",
    "NTierApplication",
    "SoftResourceAllocation",
    "RngRegistry",
    "ConScaleController",
    "DCMController",
    "DcmTrainedProfile",
    "EC2AutoScaling",
    "PredictiveAutoScaling",
    "MPCHybridController",
    "QoSRobustController",
    "ControllerContext",
    "ControllerSpec",
    "ParamSpec",
    "get_controller",
    "register_controller",
    "registered_frameworks",
    "SCTEstimate",
    "SCTModel",
    "Simulator",
    "__version__",
]
