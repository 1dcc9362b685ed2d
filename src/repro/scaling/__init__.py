"""Scaling frameworks behind one pluggable controller registry.

Every controller shares the identical threshold-based hardware scaling
policy (:mod:`~repro.scaling.policy`) and actuation path
(:mod:`~repro.scaling.actuator`); they differ in how (and whether) they
manage soft resources and in what triggers their hardware decisions:

* :class:`~repro.scaling.ec2.EC2AutoScaling` — hardware-only, reactive
  (the industry baseline);
* :class:`~repro.scaling.predictive.PredictiveAutoScaling` — hardware-
  only, proactive via CPU-trend extrapolation;
* :class:`~repro.scaling.dcm.DCMController` — applies a statically
  trained concurrency table from an offline profiling run;
* :class:`~repro.scaling.conscale.ConScaleController` — re-estimates
  the optimal concurrency online with the SCT model and re-allocates
  pools on the fly (the paper's contribution);
* :class:`~repro.scaling.mpc.MPCHybridController` — OptScaler-style
  workload forecast plus receding-horizon MVA cap correction;
* :class:`~repro.scaling.qos.QoSRobustController` — RobustScaler-style
  scaling from a tail-latency chance constraint.

All of them (and any third-party controller) are registered in
:mod:`~repro.scaling.registry`, which is where the framework name
space, parameter schemas, and construction live.
"""

from repro.control.bus import ControlBus
from repro.control.events import DecisionEvent
from repro.control.trace import DecisionTrace
from repro.scaling.actuator import Actuator
from repro.scaling.conscale import ConScaleController
from repro.scaling.controller import BaseController
from repro.scaling.dcm import (
    DCMController,
    DcmTrainedProfile,
    default_profile,
    offline_profile,
)
from repro.scaling.ec2 import EC2AutoScaling
from repro.scaling.estimator import (
    EstimateHistory,
    OptimalConcurrencyEstimator,
    TierEstimate,
)
from repro.scaling.factory import ServerFactory
from repro.scaling.mpc import MPCHybridController
from repro.scaling.policy import PolicyDecision, ThresholdPolicy, TierPolicyConfig
from repro.scaling.predictive import PredictiveAutoScaling
from repro.scaling.qos import QoSRobustController
from repro.scaling.registry import (
    ControllerContext,
    ControllerSpec,
    ParamSpec,
    controller_specs,
    get_controller,
    register_controller,
    registered_frameworks,
)

__all__ = [
    "ControlBus",
    "DecisionEvent",
    "DecisionTrace",
    "PolicyDecision",
    "Actuator",
    "ConScaleController",
    "BaseController",
    "DCMController",
    "DcmTrainedProfile",
    "default_profile",
    "offline_profile",
    "EC2AutoScaling",
    "PredictiveAutoScaling",
    "MPCHybridController",
    "QoSRobustController",
    "OptimalConcurrencyEstimator",
    "TierEstimate",
    "EstimateHistory",
    "ServerFactory",
    "ThresholdPolicy",
    "TierPolicyConfig",
    "ControllerContext",
    "ControllerSpec",
    "ParamSpec",
    "controller_specs",
    "get_controller",
    "register_controller",
    "registered_frameworks",
]
