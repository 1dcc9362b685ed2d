"""Scenario configuration for evaluation runs.

A :class:`ScenarioConfig` fully describes one run: the trace, the
starting topology and soft resources, the calibration, and the
load-scaling knob that lets the same experiment run at laptop scale
while preserving concurrency, utilisation and relative latency exactly
(DESIGN.md §5: users are divided by ``load_scale`` and all service
demands multiplied by it, so measured latencies are reported divided by
``load_scale``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.experiments.calibration import Calibration, default_calibration
from repro.ntier.app import SoftResourceAllocation
from repro.ntier.demand import DEMAND_DISTRIBUTIONS
from repro.scaling.policy import TierPolicyConfig
from repro.workload.shapes import TRACE_NAMES

__all__ = ["ScenarioConfig", "ARRIVAL_MODELS", "SIM_MODES"]

#: How requests enter the system: an open trace-driven arrival process,
#: or a closed population of synchronous users (submit → wait → think).
#: Closed populations run in discrete mode only.
ARRIVAL_MODELS = ("open", "closed")

#: Simulation modes: per-request discrete events, or governor-switched
#: hybrid, which runs quiet stretches on the aggregate fluid integrator
#: (wired in :func:`repro.experiments.runner.execute_spec`).
SIM_MODES = ("discrete", "hybrid")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Everything needed to run one evaluation scenario."""

    name: str = "default"
    seed: int = 1
    trace_name: str = "large_variations"
    duration: float = 700.0
    max_users: float = 7500.0
    load_scale: float = 25.0
    topology: tuple[int, int, int] = (1, 1, 1)
    soft: SoftResourceAllocation = field(
        default_factory=lambda: SoftResourceAllocation(1000, 60, 40)
    )
    calibration: Calibration = field(default_factory=default_calibration)
    workload_mode: str = "browse"  # "browse" | "readwrite"
    balancing: str = "leastconn"  # HAProxy policy: "leastconn" | "roundrobin"
    # Simulation mode, one of SIM_MODES.
    mode: str = "discrete"
    # Arrival model: "open" (trace-driven Poisson) or "closed" (a fixed
    # population of synchronous users sized from the trace peak).
    arrivals: str = "open"
    # Service-demand distribution drawn per request ("gamma" default;
    # "lognormal" for the heavy-tailed variant at matched mean/CV).
    demand_distribution: str = "gamma"
    prep_period: float = 15.0
    policy: TierPolicyConfig = field(default_factory=TierPolicyConfig)
    # SCT / estimator knobs
    fine_interval: float | None = None  # None -> derived from load_scale
    sct_window: float = 60.0
    sct_tolerance: float = 0.05
    # Stationarity guard: let the estimator detect mid-window capacity
    # drift and trim the stale half (repro.sct.drift).
    sct_drift_check: bool = False
    # Reporting
    warmup: float = 0.0
    timeline_bin: float = 5.0

    def __post_init__(self) -> None:
        # numpy's SeedSequence takes non-negative integers only.
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        # NaN passes every comparison below and inf the positivity ones.
        for name in ("duration", "max_users", "load_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.load_scale < 1.0:
            raise ConfigurationError(
                f"load_scale must be >= 1, got {self.load_scale!r}"
            )
        trace = self.trace_name
        if trace not in TRACE_NAMES and not trace.endswith(".csv"):
            raise ConfigurationError(
                f"trace_name must be one of {TRACE_NAMES} or a .csv path, "
                f"got {trace!r}"
            )
        if self.workload_mode not in ("browse", "readwrite"):
            raise ConfigurationError(
                f"workload_mode must be 'browse' or 'readwrite', "
                f"got {self.workload_mode!r}"
            )
        if len(self.topology) != 3 or any(n < 1 for n in self.topology):
            raise ConfigurationError(
                "topology must be three replica counts >= 1, "
                f"got {self.topology!r}"
            )
        if self.duration <= 0 or self.max_users <= 0:
            raise ConfigurationError("duration and max_users must be positive")
        if self.mode not in SIM_MODES:
            raise ConfigurationError(
                f"mode must be one of {SIM_MODES}, got {self.mode!r}"
            )
        if self.arrivals not in ARRIVAL_MODELS:
            raise ConfigurationError(
                f"arrivals must be one of {ARRIVAL_MODELS}, got {self.arrivals!r}"
            )
        if self.mode == "hybrid" and self.arrivals != "open":
            # The governor suspends/resumes the open-loop arrival chain;
            # a closed population has no chain to suspend, so closed
            # runs are discrete.
            raise ConfigurationError(
                "hybrid mode requires open arrivals; use mode='discrete' "
                "with arrivals='closed'"
            )
        if self.demand_distribution not in DEMAND_DISTRIBUTIONS:
            raise ConfigurationError(
                f"demand_distribution must be one of {DEMAND_DISTRIBUTIONS}, "
                f"got {self.demand_distribution!r}"
            )
        if self.mode == "hybrid" and self.demand_distribution != "gamma":
            # The fluid integrator synthesises completions from gamma
            # service times plus an M/M/k wait, so any other demand
            # distribution would be run (and cached) with the wrong tails.
            raise ConfigurationError(
                "hybrid mode models gamma service demand only; use "
                f"mode='discrete' with demand_distribution="
                f"{self.demand_distribution!r}"
            )

    # ------------------------------------------------------------------
    @property
    def scaled_users(self) -> float:
        """Peak user population after load scaling."""
        return self.max_users / self.load_scale

    @property
    def demand_scale(self) -> float:
        """Factor applied to every service demand (equals load_scale)."""
        return self.load_scale

    @property
    def rt_scale(self) -> float:
        """Divide measured latencies by this to report base-scale values."""
        return self.load_scale

    def effective_fine_interval(self) -> float:
        """Monitoring interval, widened with the load scale so per-
        interval completion counts stay statistically useful.

        At base scale this is the paper's 50 ms. A run scaled by S has
        per-server throughput shrunk by S, so we widen the interval by
        sqrt(S): per-interval completion counts drop by sqrt(S) (still
        plenty at the default S=25) while the number of intervals per
        SCT window also only drops by sqrt(S), keeping both the
        per-bucket sample sizes and the bucket coverage healthy.
        """
        if self.fine_interval is not None:
            return self.fine_interval
        return 0.050 * self.load_scale**0.5

    def with_(self, **changes) -> "ScenarioConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)
