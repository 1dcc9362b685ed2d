"""Per-request service-demand model.

A :class:`DemandProfile` describes, for one RUBBoS interaction type, how
much work (seconds at concurrency 1) a request places on each tier and
how that work varies request-to-request. Variability uses a gamma
distribution with configurable coefficient of variation, the usual
choice for web service demands (strictly positive, right-skewed).

The *dataset size* knob models the paper's "system state" factor: a
larger permanent dataset means more rows touched per business-logic
call, inflating demands. The app-tier demand inflates **superlinearly**
relative to its downstream-wait component, which is what shifts the app
server's optimal concurrency downward when the dataset grows
(Section III-C-2 of the paper: Tomcat's ``Q_lower`` 20 → 15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["TierDemand", "DemandProfile", "DEMAND_DISTRIBUTIONS"]

#: Supported per-request demand distributions. Both are parameterised by
#: (mean, cv); gamma is the historical default, lognormal gives the
#: heavier right tail of real service demands (ROADMAP heavy-tail item).
DEMAND_DISTRIBUTIONS = ("gamma", "lognormal")


@dataclass(frozen=True, slots=True)
class TierDemand:
    """Demand placed on a single tier by one interaction type.

    Parameters
    ----------
    mean:
        Mean service demand in seconds (at concurrency 1).
    cv:
        Coefficient of variation of the per-request demand draw.
    dataset_exponent:
        How the demand scales with dataset size:
        ``mean_effective = mean * dataset_scale ** dataset_exponent``.
        CPU-heavy business logic uses an exponent > 0; pass-through work
        (e.g. the web tier proxying) uses 0.
    """

    mean: float
    cv: float = 0.3
    dataset_exponent: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison and inf passes ``> 0``: test both ends.
        if not 0 < self.mean < math.inf:
            raise ConfigurationError(
                f"demand mean must be finite and > 0, got {self.mean!r}"
            )
        if not 0 <= self.cv < math.inf:
            raise ConfigurationError(
                f"demand cv must be finite and >= 0, got {self.cv!r}"
            )
        if not math.isfinite(self.dataset_exponent):
            raise ConfigurationError(
                "demand dataset_exponent must be finite, "
                f"got {self.dataset_exponent!r}"
            )

    def effective_mean(self, dataset_scale: float) -> float:
        """Mean demand after applying the dataset-size factor."""
        if dataset_scale <= 0:
            raise ConfigurationError(
                f"dataset_scale must be > 0, got {dataset_scale!r}"
            )
        return self.mean * dataset_scale**self.dataset_exponent


@dataclass(slots=True)
class DemandProfile:
    """Demands of one interaction type across all tiers."""

    interaction: str
    tiers: dict[str, TierDemand] = field(default_factory=dict)
    #: Per-request demand distribution: ``"gamma"`` (default, matches
    #: the historical draws byte-for-byte) or ``"lognormal"`` (heavier
    #: tail at the same mean and cv, moment-matched).
    distribution: str = "gamma"

    def __post_init__(self) -> None:
        if self.distribution not in DEMAND_DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown demand distribution {self.distribution!r}; "
                f"expected one of {DEMAND_DISTRIBUTIONS}"
            )

    def sampler(
        self, dataset_scale: float = 1.0, demand_scale: float = 1.0
    ) -> Callable[[np.random.Generator], dict[str, float]]:
        """A function sampling one request's per-tier demands (seconds)
        from ``rng``, each tier's parameters computed once, here.

        ``demand_scale`` is the experiment-level load-scaling knob: it
        multiplies every demand so that scaled-down runs preserve
        concurrency and utilisation exactly (see DESIGN.md §5 and
        :mod:`repro.experiments`).
        """
        gen = np.random.Generator
        variate = gen.lognormal if self.distribution == "lognormal" else gen.gamma
        # (tier, None and the constant demand, or the two parameters)
        terms: list[tuple[str, float | None, float]] = []
        for tier_name, td in self.tiers.items():
            mean = td.effective_mean(dataset_scale) * demand_scale
            if td.cv == 0:
                terms.append((tier_name, None, mean))
            elif self.distribution == "lognormal":
                # Moment-matched lognormal: sigma^2 = ln(1 + cv^2),
                # mu = ln(mean) - sigma^2/2 gives exactly the requested
                # mean and CV with a heavier right tail than the gamma.
                sigma_sq = float(np.log1p(td.cv * td.cv))
                mu = float(np.log(mean)) - 0.5 * sigma_sq
                terms.append((tier_name, mu, sigma_sq**0.5))
            else:
                # Gamma with shape k = 1/cv^2 has the requested CV and
                # mean `mean` with scale = mean/k.
                shape = 1.0 / (td.cv * td.cv)
                terms.append((tier_name, shape, mean / shape))

        def sample(rng: np.random.Generator) -> dict[str, float]:
            return {
                tier: b if a is None else float(variate(rng, a, b))
                for tier, a, b in terms
            }

        return sample

    def mean_demand(self, tier_name: str, dataset_scale: float = 1.0) -> float:
        """Mean demand this interaction places on ``tier_name``."""
        try:
            td = self.tiers[tier_name]
        except KeyError:
            raise ConfigurationError(
                f"interaction {self.interaction!r} has no demand for tier "
                f"{tier_name!r}; has {sorted(self.tiers)}"
            ) from None
        return td.effective_mean(dataset_scale)
