"""Calibration: the single source of paper-matching model parameters.

The paper's measured anchors, and how each is encoded here:

========================================  ====================================
Paper observation                          Encoding
========================================  ====================================
MySQL (1-core, CPU workload) Q_lower≈10   db cpu fraction 0.10, 1 unit
MySQL (2-core) Q_lower≈20                 cpu units 2 (vertical scaling)
Tomcat Q_lower≈20 (original dataset)      app cpu fraction 0.05
Tomcat Q_lower≈15 (2x dataset)            fraction ∝ sqrt(dataset_scale)
Tomcat optimum ≈30 (0.5x dataset)         same square-root law
MySQL (I/O workload) Q_lower≈5            disk resource fraction 0.20, 1 unit
Throughput sags past Q_upper              USL sigma/kappa per tier
EC2 spike mechanism                        initial soft alloc 1000-60-40;
                                           2 Tomcats -> MySQL pushed to ~80
========================================  ====================================

Base service demands are chosen so a single MySQL peaks around
950 req/s and a single Tomcat around 1,150 req/s (unscaled) — the two
tiers saturate nearly simultaneously, as in the paper's runs (Tomcat
scales at 85 s, MySQL at 90 s in Fig. 10) — giving
the paper's topology trajectory (Tomcat x2, MySQL x4-5 at the 7,500-user
peak) under the 80 % CPU threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.ntier.app import APP, DB, WEB
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.demand import TierDemand

__all__ = [
    "Calibration",
    "default_calibration",
    "web_capacity",
    "app_capacity",
    "db_capacity_cpu",
    "db_capacity_io",
]

# How the app tier's CPU-bound share grows with the dataset size
# (DESIGN.md: Q_lower(app) = cores / (fraction * dataset_scale**gamma)).
_APP_DATASET_GAMMA = 0.5


def _require_positive(name: str, value: float) -> None:
    # NaN fails every comparison and inf passes ``> 0``: test both ends.
    if not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")


def ample_capacity() -> CapacityModel:
    """A deliberately oversized server for sweep experiments.

    Used for the non-target tiers of a concurrency sweep so the target
    is the single bottleneck (the paper achieves the same with 1/4/1 or
    1/1/4 topologies).
    """
    return CapacityModel(
        [Resource("cpu", 64.0, 0.01)],
        ContentionModel(sigma=1e-5, kappa=1e-8),
    )


def web_capacity(cores: float = 1.0) -> CapacityModel:
    """Apache: high parallelism, effectively never the bottleneck."""
    _require_positive("cores", cores)
    return CapacityModel(
        [Resource("cpu", cores, 0.01)],
        ContentionModel(sigma=5e-4, kappa=2e-7),
    )


def app_capacity(cores: float = 1.0, dataset_scale: float = 1.0) -> CapacityModel:
    """Tomcat: Q_lower = 20 * cores at the original dataset size.

    A larger dataset makes each request proportionally more CPU-bound
    (more rows processed per business-logic call), raising the CPU
    fraction and *lowering* the optimal concurrency — the paper's
    system-state effect (20 -> ~15 at 2x, -> ~30 at 0.5x).
    """
    _require_positive("cores", cores)
    _require_positive("dataset_scale", dataset_scale)
    fraction = 0.05 * dataset_scale**_APP_DATASET_GAMMA
    return CapacityModel(
        [Resource("cpu", cores, min(1.0, fraction))],
        ContentionModel(sigma=2e-3, kappa=6e-5),
    )


def db_capacity_cpu(cores: float = 1.0, cpu_fraction: float = 0.10) -> CapacityModel:
    """MySQL under the browse-only CPU-intensive workload.

    Q_lower = cores / cpu_fraction (10 per core at the default), and a
    pronounced descending stage: pushing a 1-core MySQL to concurrency
    ~80 (two Tomcats' worth of default connection pools) halves its
    throughput, which is the EC2-AutoScaling failure mode of Fig. 10.
    """
    _require_positive("cores", cores)
    return CapacityModel(
        [Resource("cpu", cores, cpu_fraction)],
        ContentionModel(sigma=3e-3, kappa=3e-4),
    )


def db_capacity_io(
    cores: float = 1.0, disk_spindles: float = 1.0
) -> CapacityModel:
    """MySQL under the read/write-mix I/O-intensive workload.

    The critical resource moves to the (single-spindle) disk with a
    20 % demand share: saturation at concurrency ~5, matching
    Fig. 7(f). Disk contention (seek interference) is harsher than CPU
    contention, hence the larger USL terms.
    """
    _require_positive("cores", cores)
    return CapacityModel(
        [
            Resource("cpu", cores, 0.04),
            Resource("disk", disk_spindles, 0.20),
        ],
        ContentionModel(sigma=8e-3, kappa=4e-4),
    )


@dataclass(frozen=True, slots=True)
class Calibration:
    """Base demands, think time, and capacity builders for a scenario."""

    # {tier: (mean service demand seconds, coefficient of variation)}
    base_demands: dict[str, tuple[float, float]] = field(
        default_factory=lambda: {
            "web": (0.0003, 0.10),
            "app": (0.0165, 0.30),
            "db": (0.010, 0.30),
        }
    )
    think_time: float = 2.0
    web_cores: float = 1.0
    app_cores: float = 1.0
    db_cores: float = 1.0
    io_intensive: bool = False
    dataset_scale: float = 1.0

    def __post_init__(self) -> None:
        # Every request carries a demand for each tier (the flow reads
        # ``request.demands[tier]``), so each must be given and valid.
        tiers = (WEB, APP, DB)
        for tier in tiers:
            if tier not in self.base_demands:
                raise ConfigurationError(
                    f"base_demands has no {tier!r} tier; "
                    "it must give exactly web, app and db"
                )
        for tier, pair in self.base_demands.items():
            if tier not in tiers:
                raise ConfigurationError(
                    f"base_demands has an unknown tier {tier!r}; "
                    "it must give exactly web, app and db"
                )
            try:
                mean, cv = pair
                TierDemand(mean, cv)
            except (ConfigurationError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"base_demands[{tier!r}] = {pair!r}: {exc}"
                ) from None
        for name in ("web_cores", "app_cores", "db_cores", "dataset_scale"):
            _require_positive(name, getattr(self, name))
        if not 0 <= self.think_time < math.inf:
            raise ConfigurationError(
                f"think_time must be finite and >= 0, got {self.think_time!r}"
            )

    def capacity(self, tier: str) -> CapacityModel:
        """Build the capacity model for one tier under this calibration."""
        if tier == "web":
            return web_capacity(self.web_cores)
        if tier == "app":
            return app_capacity(self.app_cores, self.dataset_scale)
        if tier == "db":
            if self.io_intensive:
                return db_capacity_io(self.db_cores)
            return db_capacity_cpu(self.db_cores)
        raise KeyError(f"unknown tier {tier!r}")


def default_calibration() -> Calibration:
    """The evaluation-section calibration (browse-only, 1-vCPU VMs)."""
    return Calibration()
