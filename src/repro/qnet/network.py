"""Build analytical networks from the simulator's calibration.

Bridges :mod:`repro.ntier.capacity` (the simulator's server model) and
:mod:`repro.qnet.mva` (the analytical solver): a PS server whose total
work rate at concurrency ``j`` is ``capacity.work_rate(j, j)`` maps
exactly onto a load-dependent MVA station.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.ntier.capacity import CapacityModel
from repro.qnet.mva import DelayStation, LDStation, MvaResult, solve_mva

__all__ = ["station_from_capacity", "predict_closed_loop", "asymptotic_bounds"]


def station_from_capacity(
    name: str, capacity: CapacityModel, demand: float
) -> LDStation:
    """An MVA station behaving exactly like the simulated server.

    ``rate(j) = work_rate(j, j)``: with ``j`` requests present and all
    of them active (the closed-loop steady state of a leaf server), the
    station serves ``work_rate(j, j)/demand`` requests per second.
    """
    return LDStation(
        name=name,
        demand=demand,
        rate=lambda j: capacity.work_rate(float(j), float(j)),
    )


@dataclass(frozen=True, slots=True)
class ClosedLoopPrediction:
    """Analytical prediction for a closed-loop 3-tier run."""

    result: MvaResult
    bottleneck: str
    peak_throughput: float


def predict_closed_loop(
    capacities: dict[str, CapacityModel],
    demands: dict[str, float],
    n_max: int,
    think_time: float = 0.0,
) -> ClosedLoopPrediction:
    """Solve the 3-tier closed network analytically.

    ``capacities``/``demands`` are keyed by tier name (``web``, ``app``,
    ``db``); one server per tier (the DCM training topology). Pool caps
    and the cross-tier thread-holding penalty are *not* modelled — this
    is the idealised product-form network, which is exactly the model
    DCM trains on (and the reason its recommendations can go stale).
    """
    if set(capacities) != set(demands):
        raise ConfigurationError(
            f"capacities/demands keys differ: "
            f"{sorted(capacities)} vs {sorted(demands)}"
        )
    stations: list = [
        station_from_capacity(tier, capacities[tier], demands[tier])
        for tier in sorted(capacities)
    ]
    if think_time > 0.0:
        stations.append(DelayStation("think", think_time))
    result = solve_mva(stations, n_max)
    # Bottleneck: the station with the smallest peak service capacity.
    peaks = {
        tier: capacities[tier].peak(demands[tier])[1] for tier in capacities
    }
    bottleneck = min(peaks, key=peaks.get)
    return ClosedLoopPrediction(
        result=result, bottleneck=bottleneck, peak_throughput=peaks[bottleneck]
    )


def asymptotic_bounds(
    demands: dict[str, float],
    capacities: dict[str, CapacityModel],
    n: int,
    think_time: float = 0.0,
) -> tuple[float, float]:
    """Classic asymptotic bounds on closed-loop throughput.

    Returns ``(lower-is-meaningless, upper)`` style bounds as
    ``(light_load_bound, heavy_load_bound)``:
    ``X(n) <= min(n / (D_total + Z), C_bottleneck)``.
    """
    d_total = sum(demands.values())
    c_bottleneck = min(
        capacities[tier].peak(demands[tier])[1] for tier in capacities
    )
    light = n / (d_total + think_time)
    return light, c_bottleneck
