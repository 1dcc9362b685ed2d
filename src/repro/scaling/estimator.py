"""The Online Optimal Concurrency Estimator (Fig. 8, steps 2-3).

Asynchronously pulls fine-grained concurrency/throughput tuples from
the Metric Warehouse, runs the SCT model per server, and aggregates a
per-tier recommendation. Estimates are cached in a history (the
"Historical Result" table of Fig. 8) so the Decision Controller can
read the latest recommendation without re-running the analysis. A run
artifact keeps each tier's history as an :class:`EstimateHistory`,
numpy columns that rebuild the :class:`TierEstimate` rows on iteration.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.monitoring.interval import IntervalWindow
from repro.monitoring.warehouse import TELEMETRY_STALE_AFTER, MetricWarehouse
from repro.sct.drift import detect_drift
from repro.sct.model import SCTEstimate, SCTModel
from repro.sct.scatter import Scatter

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = ["TierEstimate", "EstimateHistory", "OptimalConcurrencyEstimator"]

#: Fewest fine samples in a server's window before the drift check
#: compares its two halves.
_DRIFT_MIN_SAMPLES = 60


@dataclass(frozen=True, slots=True)
class TierEstimate:
    """Aggregated recommendation for one tier."""

    tier: str
    time: float
    optimal: int  # per-server optimal concurrency (Q_lower)
    q_upper: int
    saturation_observed: bool
    hardware_limited: bool
    # True when at least one server's plateau runs at high utilisation
    # of its own hardware, regardless of whether the descending stage
    # was observed. Combined with admission-queue pressure this is the
    # signal that the current concurrency cap is *below* the (not yet
    # observable) optimum and should be explored upward.
    plateau_hot: bool
    per_server: dict[str, SCTEstimate]
    # True when the newest fine sample backing this estimate is older
    # than the estimator's staleness horizon — the telemetry feed has a
    # hole (dropout fault, dead agent) and the numbers describe a past
    # operating point, not the current one.
    stale: bool = False

    @property
    def actionable(self) -> bool:
        """Safe to actuate: the plateau was observed AND it is this
        tier's own hardware limit (not downstream congestion) AND the
        backing telemetry is fresh."""
        return self.saturation_observed and self.hardware_limited and not self.stale

    @property
    def n_servers(self) -> int:
        """How many servers contributed an estimate."""
        return len(self.per_server)


#: Column dtype by field annotation (both dataclasses postpone theirs).
_DTYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_}
#: One row per tier estimate: every :class:`TierEstimate` field but
#: ``tier`` and ``per_server``, in field order.
_TIER_COLUMNS = tuple(
    (f.name, _DTYPES[f.type]) for f in fields(TierEstimate)
    if f.name not in ("tier", "per_server")
)
#: One row per server estimate: the index of its tier estimate, a code
#: into the history's server names, then every :class:`SCTEstimate`
#: field in field order.
_SERVER_KEYS = (("estimate", np.int64), ("server", np.int64))
_SCT_COLUMNS = tuple((f.name, _DTYPES[f.type]) for f in fields(SCTEstimate))


def _column(values: ArrayLike, dtype: Any) -> np.ndarray:
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


class EstimateHistory:
    """One tier's :class:`TierEstimate` history as read-only columns.

    The tier-level fields are attributes with one row per estimate
    (``time``, ``optimal``, ``q_upper``, the flags, and ``actionable``
    derived by the property's rule). ``per_server`` has one row per
    server estimate: ``estimate`` (the row of its tier estimate),
    ``server`` (a code into ``server_names``) and every
    :class:`~repro.sct.model.SCTEstimate` field. Pickling and loading a
    history builds no estimate objects; ``len()`` and iteration give
    the :class:`TierEstimate` rows, equal to the estimator's.
    """

    tier: str
    time: np.ndarray
    optimal: np.ndarray
    q_upper: np.ndarray
    saturation_observed: np.ndarray
    hardware_limited: np.ndarray
    plateau_hot: np.ndarray
    stale: np.ndarray
    actionable: np.ndarray
    server_names: tuple[str, ...]
    per_server: dict[str, np.ndarray]

    def __init__(
        self,
        tier: str,
        columns: Mapping[str, ArrayLike],
        server_names: Sequence[str],
        per_server: Mapping[str, ArrayLike],
    ) -> None:
        self.tier = tier
        for name, dtype in _TIER_COLUMNS:
            setattr(self, name, _column(columns[name], dtype))
        self.actionable = _column(
            self.saturation_observed & self.hardware_limited & ~self.stale, np.bool_
        )
        self.server_names = tuple(server_names)
        self.per_server = {
            name: _column(per_server[name], dtype)
            for name, dtype in _SERVER_KEYS + _SCT_COLUMNS
        }

    @classmethod
    def from_estimates(cls, estimates: Sequence[TierEstimate]) -> "EstimateHistory":
        """The columns of one tier's estimates (``tier`` "" when empty)."""
        tiers = {e.tier for e in estimates}
        if len(tiers) > 1:
            raise EstimationError(f"a history holds one tier, got {sorted(tiers)}")
        index: list[int] = []
        codes: list[int] = []
        scts: list[SCTEstimate] = []
        names: dict[str, int] = {}
        for i, estimate in enumerate(estimates):
            for server, sct in estimate.per_server.items():
                index.append(i)
                codes.append(names.setdefault(server, len(names)))
                scts.append(sct)
        per_server: dict[str, list[Any]] = {"estimate": index, "server": codes}
        for name, _ in _SCT_COLUMNS:
            per_server[name] = list(map(attrgetter(name), scts))
        return cls(
            tiers.pop() if tiers else "",
            {name: list(map(attrgetter(name), estimates)) for name, _ in _TIER_COLUMNS},
            tuple(names),
            per_server,
        )

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[TierEstimate]:
        names = [name for name, _ in _TIER_COLUMNS]
        rows = zip(*(getattr(self, name).tolist() for name in names))
        for row, per_server in zip(rows, self._per_server_dicts()):
            yield TierEstimate(
                tier=self.tier, per_server=per_server, **dict(zip(names, row))
            )

    def _per_server_dicts(self) -> list[dict[str, SCTEstimate]]:
        dicts: list[dict[str, SCTEstimate]] = [{} for _ in range(len(self))]
        rows = self.per_server
        values = zip(*(rows[name].tolist() for name, _ in _SCT_COLUMNS))
        for i, code, row in zip(
            rows["estimate"].tolist(), rows["server"].tolist(), values
        ):
            dicts[i][self.server_names[code]] = SCTEstimate(*row)
        return dicts

    def keys(self) -> list[tuple[float, int, int, bool]]:
        """``(time, optimal, q_upper, actionable)`` of each estimate, as
        Python scalars: the rows the artifact signature digests."""
        return list(zip(
            self.time.tolist(), self.optimal.tolist(), self.q_upper.tolist(),
            self.actionable.tolist(),
        ))

    def __reduce__(self) -> tuple[Any, ...]:
        columns = {name: getattr(self, name) for name, _ in _TIER_COLUMNS}
        return (EstimateHistory, (self.tier, columns, self.server_names, self.per_server))

    def __repr__(self) -> str:
        return f"EstimateHistory(tier={self.tier!r}, {len(self)} estimates)"


class OptimalConcurrencyEstimator:
    """Runs the SCT model over warehouse data for whole tiers."""

    def __init__(
        self,
        warehouse: MetricWarehouse,
        model: SCTModel | None = None,
        window: float = 60.0,
        drift_check: bool = False,
    ) -> None:
        if window <= 0:
            raise EstimationError(f"window must be > 0, got {window!r}")
        self.warehouse = warehouse
        self.model = model or SCTModel()
        self.window = float(window)
        # Optional stationarity guard: before estimating, compare the
        # two halves of each server's window (repro.sct.drift); when
        # the capacity curve shifted mid-window, the pre-shift half is
        # trimmed from the warehouse so it cannot poison this or any
        # later estimate.
        self.drift_check = bool(drift_check)
        self.drift_events = 0
        self._history: dict[str, list[TierEstimate]] = {}

    # ------------------------------------------------------------------
    def estimate_tier(self, tier: str) -> TierEstimate | None:
        """Estimate the per-server optimal concurrency of a tier.

        Per-server estimates are aggregated by median (instances of a
        tier are homogeneous VMs, so their curves agree up to noise).
        Returns None when no server of the tier yields an estimate —
        the controller then keeps the current allocation.
        """
        fine = self.warehouse.fine_samples_for_tier(tier, self.window)
        per_server: dict[str, SCTEstimate] = {}
        for name, window in fine.items():
            if self.drift_check and len(window) >= _DRIFT_MIN_SAMPLES:
                window = self._drop_pre_drift(name, window)
            try:
                per_server[name] = self.model.estimate(Scatter.from_window(window))
            except EstimationError:
                continue
        if not per_server:
            return None
        # Prefer servers whose estimate is actionable (saturation seen
        # at their own hardware limit); fall back to all servers so the
        # caller still gets a non-actionable estimate to inspect.
        actionable = {
            n: e
            for n, e in per_server.items()
            if e.saturation_observed and e.hardware_limited
        }
        basis = actionable or per_server
        optima = [e.optimal for e in basis.values()]
        uppers = [e.q_upper for e in basis.values()]
        newest = max(
            (float(window.t_end[-1]) for window in fine.values() if len(window)),
            default=float("-inf"),
        )
        # An estimate whose newest backing sample is stale (telemetry
        # dropout) is flagged: controllers hold their last-known-good
        # caps rather than actuate on it.
        stale = (self.warehouse.sim.now - newest) > TELEMETRY_STALE_AFTER
        estimate = TierEstimate(
            tier=tier,
            time=self.warehouse.sim.now,
            optimal=int(round(statistics.median(optima))),
            q_upper=int(round(statistics.median(uppers))),
            saturation_observed=bool(actionable)
            or any(e.saturation_observed for e in per_server.values()),
            hardware_limited=bool(actionable),
            plateau_hot=any(e.hardware_limited for e in per_server.values()),
            per_server=per_server,
            stale=stale,
        )
        self._history.setdefault(tier, []).append(estimate)
        return estimate

    def _drop_pre_drift(self, name: str, window: IntervalWindow) -> IntervalWindow:
        """Trim the pre-shift half of a drifted window (see drift_check)."""
        mid = len(window) // 2
        report = detect_drift(
            Scatter.from_window(window[:mid]),
            Scatter.from_window(window[mid:]),
        )
        if not report.drifted:
            return window
        self.drift_events += 1
        cutoff = float(window.t_end[mid])
        self.warehouse.trim_fine_samples(name, keep_after=cutoff)
        return window[mid:]

    def last(self, tier: str) -> TierEstimate | None:
        """Latest cached estimate for a tier (the Historical Result)."""
        history = self._history.get(tier)
        return history[-1] if history else None

    def history(self, tier: str) -> list[TierEstimate]:
        """All estimates produced for a tier, in time order."""
        return list(self._history.get(tier, []))
