"""Fluid (aggregate-flow) simulation of the n-tier request path.

Instead of one calendar event per request hop, the
:class:`FluidStepper` advances per-tier *continuous occupancy* state in
coarse fixed steps (:data:`FLUID_STEP`, 250 ms), using the same
:class:`~repro.ntier.capacity.CapacityModel` USL curves that drive the
discrete PS servers:

* each tier is a load-dependent station whose total work rate at
  occupancy ``j`` is the sum of its servers' ``work_rate`` at an even
  occupancy split, capped by the tier's soft-resource concurrency limit
  (:meth:`~repro.ntier.app.NTierApplication.soft_cap`: worker threads;
  summed DB connection pools for the DB tier);
* open arrivals (rate ``users(t) / think_time``, read off the run's
  trace) relax each tier's occupancy toward the stationary mean of the
  corresponding birth–death queue — which for a penalty-free
  ``k``-unit resource *is* the M/M/k queue, giving the analytic oracle
  the fluid-equivalence harness checks against;
* an integer arrival/completion ledger keeps request conservation
  *exact*: fractional flow accumulates, and each step's whole
  completions go in one batch into the run's request log and the
  application counters (no per-request objects, no completion
  listeners); whatever is outstanding when a fluid phase ends is handed
  back to the discrete machinery (:meth:`FluidStepper.hand_back`, which
  only the hybrid mode's :class:`~repro.sim.governor.ModeGovernor`
  calls);
* per-step occupancy, utilisation, completions, and latency mass are
  deposited into the live servers' monotone monitoring accumulators
  (:meth:`~repro.ntier.server.Server.absorb_flow`), so the metric
  warehouse and every controller read fluid phases through the same
  accumulators as discrete ones. The deposit is one lump per step, so
  a fine monitor whose interval is shorter than the step aliases: at
  50 ms, one tick in five reads the whole step's occupancy and the
  other four none of it (ROADMAP item 11). The 1 s warehouse samples
  span whole steps and read steady.

The inter-tier thread coupling — the paper's core mechanism — is
preserved in aggregate: requests inside the DB tier still hold their
app-tier threads, so the app tier's work-rate table is rebuilt against
the current DB occupancy (``admitted > active`` engages the
multithreading-overhead penalty exactly as in the discrete model), and
web-tier threads are held for the whole request lifetime.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import PRIORITY_FLUID, Simulator
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:  # runtime imports are deferred to avoid package cycles
    from repro.monitoring.records import RequestLog
    from repro.ntier.app import NTierApplication
    from repro.ntier.request import Request
    from repro.workload.generator import RequestFactory
    from repro.workload.mixes import WorkloadMix
    from repro.workload.trace import Trace

__all__ = [
    "FluidStepper",
    "FLUID_STEP",
    "open_occupancy",
]

#: Integration step (seconds). Coarse relative to per-request
#: events (a busy tier turns over hundreds of requests per step) but
#: fine relative to the 1 s warehouse tick and the trace knot spacing.
FLUID_STEP = 0.25

#: Tandem visit order through the application.
_TIERS = ("web", "app", "db")

#: Offered load above this fraction of a tier's saturated service rate
#: is treated as unstable (the stationary queue is unbounded for the
#: integration step's purposes; occupancy grows at the flow imbalance).
_STABILITY_MARGIN = 0.98


def open_occupancy(lam: float, comp_rates: np.ndarray) -> tuple[float, bool]:
    """Stationary mean occupancy of a birth–death queue, or instability.

    ``comp_rates[j-1]`` is the completion rate (requests/second) with
    ``j`` requests present; beyond ``len(comp_rates)`` the rate is flat
    (occupancy past the soft cap waits without being served). Returns
    ``(L, stable)``; for a penalty-free ``k``-unit resource the rates
    are ``min(j, k)/D`` and ``L`` is exactly the M/M/k mean, which is
    what the analytic-oracle tests pin.
    """
    if lam <= 0.0:
        return 0.0, True
    if comp_rates.size == 0 or comp_rates[-1] <= 0.0:
        return math.inf, False
    tail_ratio = lam / float(comp_rates[-1])
    if tail_ratio >= _STABILITY_MARGIN:
        return math.inf, False
    # Unnormalised log-probabilities log u_j = sum_{i<=j} log(lam/mu_i),
    # computed in log space so long tables cannot overflow, plus the
    # closed-form geometric tail beyond the cap.
    log_u = np.cumsum(np.log(lam) - np.log(comp_rates))
    shift = max(0.0, float(log_u.max()))
    u = np.exp(log_u - shift)
    u0 = math.exp(-shift)
    cap = comp_rates.size
    occupancies = np.arange(1, cap + 1, dtype=float)
    r = tail_ratio
    geo_mass = float(u[-1]) * r / (1.0 - r)
    geo_first = float(u[-1]) * (cap * r / (1.0 - r) + r / (1.0 - r) ** 2)
    z = u0 + float(u.sum()) + geo_mass
    mean = (float(np.dot(occupancies, u)) + geo_first) / z
    return mean, True


#: What a tier's table is built from: each live server's name, capacity
#: key and thread limit, and the tier's soft cap.
_Signature = tuple[tuple[object, ...], int]


class _TierTable:
    """Work-rate table of one tier at its current topology/capacity."""

    __slots__ = ("cap", "work_rates", "demand", "signature")

    def __init__(
        self,
        cap: int,
        work_rates: np.ndarray,
        demand: float,
        signature: _Signature,
    ) -> None:
        self.cap = cap
        self.work_rates = work_rates
        self.demand = demand
        self.signature = signature

    def comp_rates(self) -> np.ndarray:
        """Completion rates (requests/second) per occupancy."""
        return self.work_rates / self.demand


class FluidStepper:
    """Aggregate integrator that replaces per-request discrete events.

    One stepper serves a whole run: :meth:`start` begins a fluid phase
    at the current simulation time, :meth:`halt` ends it and returns the
    integer number of in-system requests to re-materialise. The
    cumulative ``generated``/``completed`` counters span every phase,
    so run-level conservation can be asserted across any number of
    mode switches. Synthetic completions go to ``log``, the run's
    request log.
    """

    def __init__(
        self,
        sim: Simulator,
        app: "NTierApplication",
        mix: "WorkloadMix",
        rng: np.random.Generator,
        log: "RequestLog",
        *,
        think_time: float,
        trace: "Trace",
        dataset_scale: float = 1.0,
        demand_scale: float = 1.0,
    ) -> None:
        if think_time <= 0:
            raise ConfigurationError(
                f"fluid mode needs think_time > 0, got {think_time!r}"
            )
        self.sim = sim
        self.app = app
        self.mix = mix
        self.rng = rng
        self.log = log
        self.think_time = float(think_time)
        self.trace = trace
        self.dataset_scale = float(dataset_scale)
        self.demand_scale = float(demand_scale)

        #: Integer ledger, cumulative across fluid phases.
        self.generated = 0
        self.completed = 0
        self.materialised = 0

        self._proc: PeriodicProcess | None = None
        self._last = 0.0
        self._n: dict[str, float] = {t: 0.0 for t in _TIERS}
        self._arr_acc = 0.0
        self._comp_acc = 0.0
        self._tables: dict[str, _TierTable] = {}
        self._app_blocked_key = -1
        # Mix-weighted demand CV per tier: synthetic service draws use a
        # gamma at this CV so fluid-phase latency spreads mirror the
        # discrete per-request gamma demands.
        self._cv: dict[str, float] = {t: mix.demand_cv(t) for t in _TIERS}

    # ------------------------------------------------------------------
    # phase lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether a fluid phase is currently active."""
        return self._proc is not None

    @property
    def outstanding(self) -> int:
        """Requests generated by the fluid model and not yet completed
        or handed back to the discrete machinery."""
        return self.generated - self.completed - self.materialised

    def occupancy(self) -> dict[str, float]:
        """Current continuous per-tier occupancy (copy)."""
        return dict(self._n)

    def start(self) -> None:
        """Begin a fluid phase at the current simulation time."""
        if self._proc is not None:
            raise SimulationError("fluid stepper already running")
        self._last = self.sim.now
        self._n = {t: 0.0 for t in _TIERS}
        self._arr_acc = 0.0
        self._comp_acc = 0.0
        self._proc = PeriodicProcess(
            self.sim, FLUID_STEP, self._tick, priority=PRIORITY_FLUID
        )

    def materialise_requests(
        self, factory: "RequestFactory", count: int
    ) -> "list[Request]":
        """Build ``count`` discrete requests standing in for in-flight mass.

        Each request's service demands are scaled by a uniform
        remaining-work fraction: the handed-over mass was mid-service
        when the fluid phase ended, so on average half its work is
        already done. Submitting full-demand requests would double the
        instantaneous work at the switch and spike the telemetry the
        controllers act on.
        """
        now = self.sim.now
        requests: "list[Request]" = []
        fractions = self.rng.uniform(size=count)
        for i in range(count):
            request = factory.create(now)
            frac = float(fractions[i])
            for tier in request.demands:
                request.demands[tier] *= frac
            requests.append(request)
        return requests

    def halt(self) -> int:
        """End the fluid phase; return the in-system request count.

        The final partial step is integrated first so no flow mass is
        lost, then the continuous state is zeroed and the integer
        outstanding count is returned; :meth:`hand_back` re-materialises
        that many discrete requests.
        """
        if self._proc is None:
            raise SimulationError("fluid stepper is not running")
        self._advance(self.sim.now)
        self._proc.stop()
        self._proc = None
        handover = self.outstanding
        self.materialised += handover
        self._n = {t: 0.0 for t in _TIERS}
        self._arr_acc = 0.0
        self._comp_acc = 0.0
        return handover

    def hand_back(self, factory: "RequestFactory") -> int:
        """End the fluid phase and resubmit its mass as discrete requests.

        The one fluid-to-discrete hand-back: :meth:`halt`, then
        :meth:`materialise_requests` for the outstanding count, each
        submitted to the application at the current instant, so the
        requests finish through the normal discrete machinery and the
        run's conservation law closes exactly. Returns the count.
        """
        handover = self.halt()
        for request in self.materialise_requests(factory, handover):
            self.app.submit(request)
        return handover

    def _tick(self, now: float) -> None:
        self._advance(now)

    # ------------------------------------------------------------------
    # rate tables
    # ------------------------------------------------------------------
    def _tier_signature(self, tier: str) -> _Signature:
        servers = sorted(self.app.tiers[tier].servers, key=lambda s: s.name)
        return (
            tuple(
                (s.name, s.capacity.canonical_key(), s.threads.limit)
                for s in servers
            ),
            self.app.soft_cap(tier),
        )

    def _build_table(
        self, tier: str, signature: _Signature, blocked: float
    ) -> _TierTable:
        servers = sorted(self.app.tiers[tier].servers, key=lambda s: s.name)
        cap = signature[1]
        count = len(servers)
        demand = (
            self.mix.mean_demand(tier, self.dataset_scale) * self.demand_scale
        )
        if count == 0 or cap <= 0:
            return _TierTable(0, np.zeros(0), demand, signature)
        per_server_cap = cap / count
        occ = np.minimum(np.arange(1, cap + 1, dtype=float) / count, per_server_cap)
        blocked_share = blocked / count
        rates = np.zeros(cap)
        for server in servers:
            thread_cap = float(server.threads.limit)
            for idx in range(cap):
                active = occ[idx]
                admitted = min(active + blocked_share, thread_cap)
                active = min(active, admitted)
                rates[idx] += server.capacity.work_rate(active, admitted)
        return _TierTable(cap, rates, demand, signature)

    def _refresh_tables(self) -> None:
        """Rebuild any tier table whose topology/capacity/caps changed.

        The app tier additionally holds worker threads for requests that
        are currently inside the DB tier (``admitted > active`` — the
        multithreading-overhead coupling), so its table is also keyed by
        the rounded DB occupancy.
        """
        blocked_key = int(round(self._n["db"]))
        for tier in _TIERS:
            signature = self._tier_signature(tier)
            table = self._tables.get(tier)
            if tier == "app":
                if (
                    table is None
                    or table.signature != signature
                    or blocked_key != self._app_blocked_key
                ):
                    self._tables[tier] = self._build_table(
                        tier, signature, float(blocked_key)
                    )
                    self._app_blocked_key = blocked_key
            elif table is None or table.signature != signature:
                self._tables[tier] = self._build_table(tier, signature, 0.0)

    # ------------------------------------------------------------------
    # the integration step
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        dt = now - self._last
        if dt <= 0.0:
            self._last = now
            return
        self._refresh_tables()
        lam = self.trace.users_at(now) / self.think_time

        # Cascade the flow tier by tier: each tier relaxes toward its
        # stationary occupancy target; its outflow (arrivals minus
        # retained flow) is the next tier's offered rate. Clamps keep
        # the flow physical: a tier cannot retain more than arrived nor
        # complete more than it holds.
        lam_in = lam
        residences: dict[str, float] = {}
        for tier in _TIERS:
            table = self._tables[tier]
            n = self._n[tier]
            if table.cap == 0:
                # No live servers: everything offered is retained.
                self._n[tier] = n + lam_in * dt
                residences[tier] = self.think_time
                lam_in = 0.0
                continue
            comp = table.comp_rates()
            target, stable = open_occupancy(lam_in, comp)
            mu_max = float(comp[-1])
            if stable:
                resid = target / lam_in if lam_in > 1e-12 else table.demand
                tau = max(resid, dt)
                dn = (target - n) * (1.0 - math.exp(-dt / tau))
            else:
                dn = (lam_in - _STABILITY_MARGIN * mu_max) * dt
            dn = min(dn, lam_in * dt)
            dn = max(dn, -n)
            out_rate = lam_in - dn / dt
            n_new = n + dn
            self._n[tier] = n_new
            residences[tier] = (
                max(table.demand, n_new / out_rate)
                if out_rate > 1e-9
                else table.demand
            )
            lam_in = out_rate
        comp_rate = lam_in

        # Integer ledger: whole requests in, whole requests out, never
        # more completions than the fluid model has generated.
        self._arr_acc += lam * dt
        gen = int(self._arr_acc)
        self._arr_acc -= gen
        self.generated += gen
        self._comp_acc += comp_rate * dt
        comp_int = min(int(self._comp_acc), self.outstanding)
        self._comp_acc = min(self._comp_acc - comp_int, 1.0)
        self.completed += comp_int

        latencies = self._record_completions(now, comp_int, residences)
        self._deposit_telemetry(dt, comp_int, latencies)
        self._last = now

    # ------------------------------------------------------------------
    # synthetic completions + telemetry
    # ------------------------------------------------------------------
    def _record_completions(
        self, now: float, count: int, residences: dict[str, float]
    ) -> dict[str, float]:
        """Log ``count`` synthetic completions at ``now`` as one batch;
        return per-tier latency mass (visit semantics: a web visit spans
        the whole request, an app visit spans the DB call)."""
        mass = {t: 0.0 for t in _TIERS}
        if count <= 0:
            return mass
        # Per-tier sojourn = service + queueing wait. The service part
        # is a gamma at the mix's demand mean/CV (mirroring the discrete
        # per-request draws); the wait part — whatever of the measured
        # residence exceeds the mean demand — is exponential, matching
        # the conditional-wait shape of an M/M/k. Means add up to the
        # fluid residence, so Little's law is preserved in expectation.
        draws: dict[str, np.ndarray] = {}
        for tier in _TIERS:
            mean = self._tables[tier].demand
            cv = self._cv[tier]
            if mean > 0.0 and cv > 0.0:
                shape = 1.0 / (cv * cv)
                service = self.rng.gamma(shape, mean / shape, size=count)
            else:
                service = np.full(count, max(mean, 0.0))
            wait = residences[tier] - mean
            if wait > 1e-12:
                service = service + self.rng.exponential(wait, size=count)
            draws[tier] = service
        total = draws["web"] + draws["app"] + draws["db"]
        mass["web"] = float(total.sum())
        mass["app"] = float((draws["app"] + draws["db"]).sum())
        mass["db"] = float(draws["db"].sum())
        picks = self.mix.sample_interactions(self.rng, count)
        self.log.record_batch(now - total, now, picks, self.mix.interactions)
        self.app.record_synthetic_completion(count)
        return mass

    def _deposit_telemetry(
        self, dt: float, comp_int: int, latency_mass: dict[str, float]
    ) -> None:
        """Spread the step's aggregate state over the live servers.

        The thread-holding structure of the discrete model is mirrored:
        web threads are held for the whole lifetime, app threads across
        the DB call, DB occupancy is its own. Completions are integers
        split round-robin (sorted by server name) so per-server counters
        stay exact.
        """
        n_web, n_app, n_db = (self._n[t] for t in _TIERS)
        occupancy = {
            "web": (n_web, n_web + n_app + n_db),
            "app": (n_app, n_app + n_db),
            "db": (n_db, n_db),
        }
        for tier in _TIERS:
            servers = sorted(self.app.tiers[tier].servers, key=lambda s: s.name)
            count = len(servers)
            if count == 0:
                continue
            active_total, admitted_total = occupancy[tier]
            base, extra = divmod(comp_int, count)
            for idx, server in enumerate(servers):
                share = base + (1 if idx < extra else 0)
                thread_cap = float(server.threads.limit)
                admitted = min(admitted_total / count, thread_cap)
                active = min(active_total / count, admitted)
                lat = (
                    latency_mass[tier] * (share / comp_int)
                    if comp_int > 0
                    else 0.0
                )
                server.absorb_flow(
                    dt=dt,
                    active=active,
                    admitted=admitted,
                    completions=share,
                    latency=lat,
                )
