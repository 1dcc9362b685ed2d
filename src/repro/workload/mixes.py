"""Workload mixes: which interactions arrive with what probability.

The paper's two workload modes map onto the catalog as:

* **browse-only (CPU-intensive)** — read interactions only; MySQL's
  critical resource is the CPU.
* **read/write mix (I/O-intensive)** — includes the ``Store*`` writes;
  the paper switches MySQL's critical resource to disk I/O, shifting
  its optimal concurrency from 15 down to 5 (Fig. 7(c)/(f)). The
  capacity-side consequence is configured per experiment; the mix here
  provides the matching demand stream.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import ConfigurationError
from repro.ntier.demand import DemandProfile, TierDemand
from repro.workload.rubbos import CATALOG, Interaction

__all__ = ["WorkloadMix", "browse_only_mix", "read_write_mix"]


class WorkloadMix:
    """A probability distribution over interactions plus demand profiles.

    Parameters
    ----------
    name:
        Mix label (appears in logs and figure captions).
    weights:
        ``{interaction_name: weight}``; normalised internally.
    base_demands:
        ``{tier: (mean_seconds, cv)}`` for a multiplier-1.0 interaction.
    app_dataset_exponent:
        Dataset-size sensitivity of the app tier (see
        :class:`~repro.ntier.demand.TierDemand`); the DB tier always
        scales linearly with the dataset, the web tier not at all.
    """

    def __init__(
        self,
        name: str,
        weights: dict[str, float],
        base_demands: dict[str, tuple[float, float]],
        app_dataset_exponent: float = 0.6,
        distribution: str = "gamma",
    ) -> None:
        if not weights:
            raise ConfigurationError("a workload mix needs at least one interaction")
        catalog = {i.name: i for i in CATALOG}
        unknown = sorted(set(weights) - set(catalog))
        if unknown:
            raise ConfigurationError(f"unknown interactions in mix: {unknown}")
        total = float(sum(weights.values()))
        if total <= 0:
            raise ConfigurationError("mix weights must sum to a positive value")
        self.name = name
        self._names: list[str] = sorted(weights)
        self._probs = np.array([weights[n] / total for n in self._names])
        # The CDF that ``Generator.choice(p=probs)`` rebuilds on every
        # call, built once with the same arithmetic: inverse-CDF picks
        # from one ``rng.random()`` each are then the picks ``choice``
        # would make, and leave the generator in the same state.
        self._cdf = self._probs.cumsum()
        self._cdf /= self._cdf[-1]
        self._cdf_list: list[float] = self._cdf.tolist()
        self._interactions: dict[str, Interaction] = {
            n: catalog[n] for n in self._names
        }
        dataset_exponents = {"web": 0.0, "app": app_dataset_exponent, "db": 1.0}
        self._profiles: dict[str, DemandProfile] = {}
        for n in self._names:
            inter = catalog[n]
            mults = {"web": inter.web_mult, "app": inter.app_mult, "db": inter.db_mult}
            tiers = {}
            for tier, (mean, cv) in base_demands.items():
                tiers[tier] = TierDemand(
                    mean=mean * mults.get(tier, 1.0),
                    cv=cv,
                    dataset_exponent=dataset_exponents.get(tier, 0.0),
                )
            self._profiles[n] = DemandProfile(
                interaction=n, tiers=tiers, distribution=distribution
            )

    # ------------------------------------------------------------------
    def canonical_key(self):
        """Identity for content digesting (see repro.experiments.artifact).

        The demand profiles are a pure function of (weights,
        base_demands, dataset exponents) and the static servlet catalog,
        so digesting the profiles covers everything that can change a
        run's outcome.
        """
        return (
            self.name,
            tuple(self._names),
            tuple(float(p) for p in self._probs),
            tuple((n, self._profiles[n]) for n in self._names),
        )

    @property
    def interactions(self) -> list[str]:
        """Interaction names in this mix (sorted)."""
        return list(self._names)

    def write_fraction(self) -> float:
        """Probability an arrival is a write interaction."""
        return float(
            sum(
                p
                for n, p in zip(self._names, self._probs)
                if self._interactions[n].write
            )
        )

    def sample_interaction(self, rng: np.random.Generator) -> str:
        """Draw one interaction name (as ``rng.choice`` over the weights)."""
        return self._names[bisect_right(self._cdf_list, rng.random())]

    def sample_interactions(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` picks, indices into :attr:`interactions`, at once.

        The same picks and generator state as ``rng.choice(n, size=size,
        p=probs)``. Used by the fluid integrator, which logs each step's
        synthetic completions as one batch.
        """
        return self._cdf.searchsorted(rng.random(size), side="right")

    def profile(self, name: str) -> DemandProfile:
        """Demand profile of one interaction."""
        return self._profiles[name]

    def demand_cv(self, tier: str) -> float:
        """Mix-weighted demand coefficient of variation on ``tier``.

        The fluid integrator shapes its synthetic per-tier service draws
        with this (gamma at the matched CV), so fluid-phase latency
        spreads mirror the discrete per-request gamma demands.
        """
        return float(
            sum(
                p * self._profiles[n].tiers[tier].cv
                for n, p in zip(self._names, self._probs)
                if tier in self._profiles[n].tiers
            )
        )

    def mean_demand(self, tier: str, dataset_scale: float = 1.0) -> float:
        """Mix-weighted mean demand on ``tier`` (seconds).

        This is the per-request demand the capacity calibration and the
        offline DCM profiler use for throughput predictions.
        """
        return float(
            sum(
                p * self._profiles[n].mean_demand(tier, dataset_scale)
                for n, p in zip(self._names, self._probs)
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WorkloadMix({self.name!r}, {len(self._names)} interactions)"


# ----------------------------------------------------------------------
# The two standard paper mixes
# ----------------------------------------------------------------------

def browse_only_mix(
    base_demands: dict[str, tuple[float, float]],
    distribution: str = "gamma",
) -> WorkloadMix:
    """The CPU-intensive browse-only mode: reads only, browse-heavy."""
    weights = {
        "StoriesOfTheDay": 12.0,
        "ViewStory": 20.0,
        "ViewComment": 12.0,
        "ViewFullComment": 6.0,
        "BrowseCategories": 8.0,
        "BrowseStoriesByCategory": 10.0,
        "BrowseRegions": 4.0,
        "BrowseStoriesByRegion": 6.0,
        "OlderStories": 8.0,
        "SearchInStories": 5.0,
        "SearchInComments": 2.0,
        "SearchInUsers": 2.0,
        "ViewUserInfo": 5.0,
    }
    return WorkloadMix("browse-only", weights, base_demands, distribution=distribution)


def read_write_mix(
    base_demands: dict[str, tuple[float, float]],
    distribution: str = "gamma",
) -> WorkloadMix:
    """The I/O-intensive read/write mode: ~15 % writes."""
    weights = {
        "StoriesOfTheDay": 10.0,
        "ViewStory": 16.0,
        "ViewComment": 10.0,
        "BrowseStoriesByCategory": 8.0,
        "OlderStories": 6.0,
        "SearchInStories": 4.0,
        "ViewUserInfo": 4.0,
        "SubmitStoryForm": 4.0,
        "StoreStory": 5.0,
        "SubmitCommentForm": 5.0,
        "StoreComment": 6.0,
        "ModerateComment": 2.0,
        "StoreModeratorLog": 1.5,
        "RegisterUserForm": 1.5,
        "StoreRegisterUser": 1.5,
    }
    return WorkloadMix("read-write", weights, base_demands, distribution=distribution)
