"""Bootstrap confidence intervals for the SCT optimum.

The point estimate ``Q_lower`` hides how much it would wobble under a
different draw of the same window. A nonparametric bootstrap —
resample the scatter's points with replacement, re-estimate, take
percentiles — quantifies that: a controller (or an operator reading
Fig. 6) can distinguish "the optimum is 10 ± 1" from "somewhere in
8–16, keep collecting".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.rng import RngRegistry
from repro.sct.model import SCTModel
from repro.sct.scatter import Scatter

__all__ = ["QLowerInterval", "bootstrap_q_lower"]


@dataclass(frozen=True, slots=True)
class QLowerInterval:
    """Bootstrap interval for the optimal concurrency."""

    point: int
    lower: int
    upper: int
    level: float
    n_resamples: int
    n_failed: int  # resamples where estimation was impossible

    @property
    def width(self) -> int:
        return self.upper - self.lower

    def describe(self) -> str:
        return (
            f"Q_lower = {self.point} "
            f"[{self.lower}, {self.upper}] at {self.level:.0%} "
            f"({self.n_failed}/{self.n_resamples} resamples failed)"
        )


def bootstrap_q_lower(
    scatter: Scatter,
    model: SCTModel | None = None,
    n_resamples: int = 200,
    level: float = 0.90,
    rng: np.random.Generator | None = None,
) -> QLowerInterval:
    """Percentile-bootstrap interval for ``Q_lower``.

    Raises :class:`EstimationError` when the point estimate itself is
    impossible or when more than half the resamples fail (the window is
    too thin to say anything distributional).
    """
    if not 0.5 < level < 1.0:
        raise EstimationError(f"level must be in (0.5, 1), got {level!r}")
    if n_resamples < 10:
        raise EstimationError(f"n_resamples must be >= 10, got {n_resamples!r}")
    model = model or SCTModel()
    # The default stream flows through RngRegistry like every other
    # stochastic draw, so resampling noise is pinned by the same
    # seed-derivation scheme as the rest of an experiment.
    rng = rng if rng is not None else RngRegistry(0).stream("sct.bootstrap")
    point = model.estimate(scatter).q_lower  # raises if impossible

    n = len(scatter)
    estimates: list[int] = []
    failed = 0
    for _ in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        try:
            estimates.append(model.estimate(scatter[idx]).q_lower)
        except EstimationError:
            failed += 1
    if failed > n_resamples // 2:
        raise EstimationError(
            f"{failed}/{n_resamples} bootstrap resamples failed; "
            "the window is too thin for an interval"
        )
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(estimates, [100 * alpha, 100 * (1 - alpha)])
    return QLowerInterval(
        point=point,
        lower=int(np.floor(lo)),
        upper=int(np.ceil(hi)),
        level=level,
        n_resamples=n_resamples,
        n_failed=failed,
    )
