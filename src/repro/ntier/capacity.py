"""Concurrency-dependent server capacity.

This module encodes the paper's three-stage throughput curve (Fig. 4):

* **Ascending stage** — at low concurrency each in-flight request
  progresses at full speed, so throughput grows linearly with
  concurrency. A single request does not keep the bottleneck resource
  busy continuously (it alternates computation with I/O, lock waits and
  downstream calls), which is why a 1-core MySQL only saturates around
  concurrency 10 in the paper's measurements.
* **Stable stage** — once the critical hardware resource (CPU cores or
  the disk spindle) is fully utilised, throughput plateaus at
  ``TP_max``.
* **Descending stage** — beyond the plateau, multithreading overhead
  (lock contention, cache crosstalk, GC) erodes capacity. We model the
  erosion with the Universal Scalability Law's contention (``sigma``)
  and coherency (``kappa``) terms, which are the closed-form expression
  of exactly the overhead sources the paper cites.

The model is deliberately *fluid*: given ``a`` actively-computing
requests and ``m`` admitted requests (threads held, including those
blocked on a downstream tier), the server completes work at

    ``rate(a, m) = min(a, a_sat) * penalty(m)``   [work-seconds / second]

where ``a_sat = min_r(units_r / fraction_r)`` is the concurrency at
which the critical resource saturates, and ``penalty`` is the USL
denominator. Dividing by the mean per-request demand gives the familiar
throughput curve; multiplying a resource's utilisation-law expression
gives per-resource utilisation for the threshold-based scalers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CapacityModelError

__all__ = ["Resource", "ContentionModel", "CapacityModel"]


@dataclass(frozen=True, slots=True)
class Resource:
    """One hardware resource of a server.

    Parameters
    ----------
    name:
        e.g. ``"cpu"`` or ``"disk"``.
    units:
        Number of parallel units (CPU cores; disk spindles). Fractional
        values model hypervisor CPU limits.
    fraction:
        Fraction of a request's service demand spent on this resource.
        Fractions across resources may sum to less than 1 (the remainder
        is overlappable waiting: network, locks, downstream calls).
    """

    name: str
    units: float
    fraction: float

    def __post_init__(self) -> None:
        # NaN fails every comparison and inf passes ``> 0``.
        if not 0 < self.units < math.inf:
            raise CapacityModelError(
                f"resource {self.name!r}: units must be finite and > 0, "
                f"got {self.units!r}"
            )
        if not 0 < self.fraction <= 1:
            raise CapacityModelError(
                f"resource {self.name!r}: fraction must be in (0, 1], "
                f"got {self.fraction!r}"
            )

    @property
    def saturation_concurrency(self) -> float:
        """Concurrency at which this resource alone reaches 100 % busy."""
        return self.units / self.fraction


class ContentionModel:
    """USL-style multithreading-overhead penalty.

    ``penalty(m) = 1 / (1 + sigma*(m-1) + kappa*m*(m-1))`` for ``m >= 1``
    admitted requests; 1.0 for ``m <= 1``. ``sigma`` captures serial
    contention (locks), ``kappa`` captures pairwise coherency costs
    (cache crosstalk, GC pressure) and produces the descending stage.
    """

    __slots__ = ("sigma", "kappa")

    def __init__(self, sigma: float = 0.0, kappa: float = 0.0) -> None:
        if sigma < 0 or kappa < 0:
            raise CapacityModelError(
                f"sigma and kappa must be non-negative, got {sigma!r}, {kappa!r}"
            )
        self.sigma = float(sigma)
        self.kappa = float(kappa)

    def penalty(self, m: float) -> float:
        """Multiplicative efficiency at ``m`` admitted requests (<= 1)."""
        if m <= 1.0:
            return 1.0
        return 1.0 / (1.0 + self.sigma * (m - 1.0) + self.kappa * m * (m - 1.0))

    def canonical_key(self):
        """Identity for content digesting (see repro.experiments.artifact)."""
        return (self.sigma, self.kappa)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ContentionModel(sigma={self.sigma}, kappa={self.kappa})"


class _PenaltyTable(dict):
    """``contention.penalty(m)`` by admitted count ``m``, each entry
    computed by that same call on its first read."""

    __slots__ = ("_contention",)

    def __init__(self, contention: ContentionModel) -> None:
        super().__init__()
        self._contention = contention

    def __missing__(self, m: int) -> float:
        value = self[m] = self._contention.penalty(m)
        return value


class CapacityModel:
    """Full capacity curve of one server.

    Combines the resource-saturation ceiling with the contention
    penalty. All scaling frameworks in the paper interact with servers
    exclusively through the resulting throughput behaviour, so this is
    the single calibration point for every experiment.
    """

    __slots__ = (
        "resources", "contention", "penalties", "_a_sat", "_critical", "_busy_terms",
    )

    def __init__(
        self,
        resources: list[Resource] | tuple[Resource, ...],
        contention: ContentionModel | None = None,
    ) -> None:
        if not resources:
            raise CapacityModelError("a server needs at least one resource")
        names = [r.name for r in resources]
        if len(set(names)) != len(names):
            raise CapacityModelError(f"duplicate resource names: {names}")
        self.resources: tuple[Resource, ...] = tuple(resources)
        self.contention = contention or ContentionModel()
        critical = min(self.resources, key=lambda r: r.saturation_concurrency)
        self._critical = critical
        self._a_sat = critical.saturation_concurrency
        self._busy_terms = tuple((r.name, r.fraction, r.units) for r in self.resources)
        #: ``contention.penalty(m)`` by admitted count ``m``: the
        #: discrete server reads its rate's penalty here, by subscript
        #: (see :meth:`repro.ntier.server.Server._reschedule`).
        self.penalties: dict[int, float] = _PenaltyTable(self.contention)

    def canonical_key(self):
        """Identity for content digesting (see repro.experiments.artifact).

        The derived fields (the penalty table included) are pure
        functions of the constructor arguments, which are the identity.
        """
        return (self.resources, self.contention)

    @property
    def saturation_concurrency(self) -> float:
        """Active concurrency at which the critical resource saturates.

        This is the theoretical ``Q_lower`` of the server: the minimum
        concurrency achieving maximum throughput (before overhead).
        """
        return self._a_sat

    @property
    def critical_resource(self) -> Resource:
        """The resource that saturates first (CPU or disk)."""
        return self._critical

    def work_rate(self, active: float, admitted: float) -> float:
        """Total work completion rate (work-seconds/second).

        ``active`` is the number of requests currently computing here;
        ``admitted`` is the number of threads held (computing + blocked
        on downstream tiers) and drives the overhead penalty.
        """
        if active <= 0:
            return 0.0
        base = active if active < self._a_sat else self._a_sat
        return base * self.contention.penalty(max(admitted, active))

    def throughput(self, concurrency: float, mean_demand: float) -> float:
        """Steady-state throughput (requests/second) at a sustained
        concurrency, for a workload with the given mean per-request
        demand. This is the closed-form of the Fig. 4 curve, used by the
        offline DCM profiler and by tests.
        """
        if mean_demand <= 0:
            raise CapacityModelError(f"mean_demand must be > 0, got {mean_demand!r}")
        return self.work_rate(concurrency, concurrency) / mean_demand

    def peak(self, mean_demand: float, q_max: int = 4096) -> tuple[int, float]:
        """Return ``(argmax concurrency, max throughput)`` over integer
        concurrencies ``1..q_max``."""
        best_q, best_tp = 1, self.throughput(1, mean_demand)
        for q in range(2, q_max + 1):
            tp = self.throughput(q, mean_demand)
            if tp > best_tp:
                best_q, best_tp = q, tp
            # The curve is unimodal: once past saturation and falling we
            # can stop early.
            elif q > self._a_sat and tp < 0.5 * best_tp:
                break
        return best_q, best_tp

    def utilization(self, resource_name: str, active: float, admitted: float) -> float:
        """*Busy* utilisation of one resource — what a monitoring agent
        (top/vmstat) reports.

        ``U_r = min(active * fraction_r, units_r) / units_r``: once
        enough requests are in service the resource is pegged at 100 %
        even though multithreading overhead wastes part of it. This is
        deliberately **not** discounted by the contention penalty — a
        thrashing server shows a busy CPU, which is exactly why
        threshold-based scalers keep scaling hardware while the real
        problem is the concurrency setting (the paper's Fig. 10 story).
        Use :meth:`efficiency` for the useful-work share.
        """
        res = self._resource(resource_name)
        if active <= 0:
            return 0.0
        return min(active * res.fraction, res.units) / res.units

    def accrue_busy(
        self, integral: dict[str, float], dt: float, active: float
    ) -> None:
        """Add ``dt * utilization(name, active, ...)`` for every resource
        to ``integral[name]``, for ``active > 0``, without name lookups.
        The conditional picks what ``min(busy, units)`` would, without
        the call."""
        for name, fraction, units in self._busy_terms:
            busy = active * fraction
            integral[name] += dt * ((units if units < busy else busy) / units)

    def efficiency(self, resource_name: str, active: float, admitted: float) -> float:
        """Useful-work utilisation of one resource (utilisation law):
        ``U_r = work_rate * fraction_r / units_r``. Falls below the busy
        utilisation as contention grows."""
        res = self._resource(resource_name)
        rate = self.work_rate(active, admitted)
        return min(1.0, rate * res.fraction / res.units)

    def resource(self, resource_name: str) -> Resource:
        """Look up one resource by name."""
        return self._resource(resource_name)

    def _resource(self, resource_name: str) -> Resource:
        for res in self.resources:
            if res.name == resource_name:
                return res
        raise CapacityModelError(
            f"unknown resource {resource_name!r}; has "
            f"{[r.name for r in self.resources]}"
        )

    def scaled_cores(self, resource_name: str, units: float) -> "CapacityModel":
        """Return a copy with one resource's unit count replaced.

        Used by vertical-scaling experiments (1-core → 2-core MySQL).
        """
        replaced = [
            Resource(r.name, units if r.name == resource_name else r.units, r.fraction)
            for r in self.resources
        ]
        return CapacityModel(replaced, self.contention)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rs = ", ".join(
            f"{r.name}:{r.units}u@{r.fraction:.3f}" for r in self.resources
        )
        return f"CapacityModel([{rs}], a_sat={self._a_sat:.2f}, {self.contention!r})"
