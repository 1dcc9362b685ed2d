"""DCM: offline-profiled concurrency-aware scaling (the paper's [10]).

DCM integrates concurrency adaption with hardware scaling, but derives
its per-server optimal concurrency from an **offline** queueing-model
profiling run performed before production, under *training* conditions
(a specific hardware configuration, dataset size and workload type).
At runtime it applies the trained numbers whenever the topology
changes.

The weakness the paper demonstrates (Fig. 11): when the production
environment drifts from the training conditions — e.g. the dataset
shrinks, so each Tomcat request becomes cheaper and the optimal
concurrency rises — the trained table is stale, and DCM under- or
over-allocates until someone re-trains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, DB
from repro.ntier.capacity import CapacityModel
from repro.scaling.actuator import Actuator
from repro.scaling.controller import BaseController
from repro.scaling.policy import TierPolicyConfig
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenarios import ScenarioConfig

__all__ = [
    "DcmTrainedProfile",
    "offline_profile",
    "default_profile",
    "DCMController",
]

#: Floor on each Tomcat's DB connection pool.
_MIN_DB_CONNECTIONS = 2


def offline_profile(
    capacity: CapacityModel,
    mean_demand: float,
    blocking_share: float = 0.0,
    tolerance: float = 0.05,
    q_max: int = 512,
) -> int:
    """Offline training: the optimal concurrency of one server type.

    Emulates DCM's queueing-network profiling: sweep the steady-state
    throughput curve of the server under the *training* workload and
    return the smallest concurrency within ``tolerance`` of the peak
    (the same Q_lower definition the SCT model estimates online, but
    frozen at training time).

    ``blocking_share`` is the fraction of a request's residence in this
    server spent blocked on a downstream tier (a Tomcat thread waits
    out the whole MySQL call). The optimal *thread/connection count* —
    what the actuators configure — must cover blocked threads too, so
    the active-concurrency optimum is divided by ``1 - blocking_share``.
    A leaf server (MySQL) has no downstream calls: share 0.
    """
    if mean_demand <= 0:
        raise ConfigurationError(f"mean_demand must be > 0, got {mean_demand!r}")
    if not 0.0 <= blocking_share < 1.0:
        raise ConfigurationError(
            f"blocking_share must be in [0, 1), got {blocking_share!r}"
        )
    _, tp_max = capacity.peak(mean_demand, q_max)
    for q in range(1, q_max + 1):
        if capacity.throughput(q, mean_demand) >= (1.0 - tolerance) * tp_max:
            return max(1, int(round(q / (1.0 - blocking_share))))
    raise ConfigurationError("profiling failed to locate the throughput peak")


@dataclass(frozen=True, slots=True)
class DcmTrainedProfile:
    """The static concurrency table produced by offline training.

    ``app_optimal`` and ``db_optimal`` are per-server optimal
    concurrencies under the training conditions.
    """

    app_optimal: int
    db_optimal: int
    trained_on: str = ""

    def __post_init__(self) -> None:
        if self.app_optimal < 1 or self.db_optimal < 1:
            raise ConfigurationError(
                "trained optima must be >= 1, got "
                f"{self.app_optimal!r} / {self.db_optimal!r}"
            )


def default_profile(config: "ScenarioConfig") -> DcmTrainedProfile:
    """Train DCM under *default* conditions (original dataset, browse
    workload, 1-core VMs) regardless of the runtime scenario — that gap
    is precisely what Fig. 11 exercises."""
    # Imported lazily: the calibration and workload modules sit above
    # repro.scaling in the layering, and this trainer is only needed
    # when a DCM run supplies no explicit profile.
    from repro.experiments.calibration import app_capacity, db_capacity_cpu
    from repro.workload.mixes import browse_only_mix

    mix = browse_only_mix(config.calibration.base_demands)
    d_app = mix.mean_demand(APP)
    d_db = mix.mean_demand(DB)
    # A Tomcat thread is blocked for the whole MySQL call, so the share
    # of its residence spent blocked is d_db / (d_app + d_db) when the
    # DB is uncongested (the training condition).
    app_q = offline_profile(
        app_capacity(1.0, 1.0), d_app, blocking_share=d_db / (d_app + d_db)
    )
    db_q = offline_profile(db_capacity_cpu(1.0), d_db)
    return DcmTrainedProfile(
        app_optimal=app_q, db_optimal=db_q, trained_on="default-conditions"
    )


class DCMController(BaseController):
    """Hardware scaling plus statically trained soft-resource adaption."""

    name = "dcm"

    def __init__(
        self,
        sim: Simulator,
        warehouse: MetricWarehouse,
        actuator: Actuator,
        profile: DcmTrainedProfile,
        tier_configs: dict[str, TierPolicyConfig] | None = None,
    ) -> None:
        super().__init__(sim, warehouse, actuator, tier_configs)
        self.profile = profile
        # DCM configures the trained allocation up-front as well.
        sim.schedule_after(0.0, lambda: self._apply())

    def after_hardware_change(self, tier: str, kind: str) -> None:
        """Re-apply the trained table for the new topology."""
        self._apply()

    def _apply(self) -> None:
        n_db = self.actuator.app.tiers[DB].size
        n_app = self.actuator.app.tiers[APP].size
        if n_db == 0 or n_app == 0:
            # Topology still bootstrapping; the first hardware-change
            # notification will re-apply.
            return
        trained_on = self.profile.trained_on or "offline profiling"
        self.actuator.set_app_threads(
            self.profile.app_optimal,
            reason=f"trained table ({trained_on})",
            estimate=float(self.profile.app_optimal),
        )
        per_app = max(
            _MIN_DB_CONNECTIONS, int(round(self.profile.db_optimal * n_db / n_app))
        )
        self.actuator.set_db_connections(
            per_app,
            reason=f"trained table ({trained_on}) x {n_db} db / {n_app} app",
            estimate=float(self.profile.db_optimal),
        )
