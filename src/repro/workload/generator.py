"""Request generators driving the n-tier application.

Two client models, matching the paper's two experimental setups:

* :class:`OpenLoopGenerator` — Poisson arrivals whose rate follows a
  user trace divided by the mean think time. This is the production/
  evaluation workload ("a request rate that follows a Poisson
  distribution to simulate a number of concurrent users").
* :class:`ClosedLoopGenerator` — a fixed population of users that
  re-issue immediately (or after a think time) when their previous
  request completes. With zero think time this is the paper's modified
  generator for the concurrency sweeps of Fig. 3/7, where the offered
  concurrency is controlled exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.ntier.app import NTierApplication
from repro.ntier.request import Request
from repro.sim.engine import Simulator
from repro.sim.event import EventHandle
from repro.workload.mixes import WorkloadMix
from repro.workload.trace import Trace

__all__ = ["RequestFactory", "OpenLoopGenerator", "ClosedLoopGenerator"]

# Re-evaluate the arrival rate at least this often even when the
# instantaneous rate is very low, so bursts are never missed.
_MAX_GAP = 0.5


class RequestFactory:
    """Creates requests with demands drawn from a workload mix, through
    per-interaction samplers bound at construction."""

    def __init__(
        self,
        mix: WorkloadMix,
        rng: np.random.Generator,
        dataset_scale: float = 1.0,
        demand_scale: float = 1.0,
    ) -> None:
        # NaN fails every comparison and inf passes ``> 0``.
        if not (0 < dataset_scale < np.inf and 0 < demand_scale < np.inf):
            raise ConfigurationError(
                f"dataset_scale and demand_scale must be finite and > 0, "
                f"got {dataset_scale!r} and {demand_scale!r}"
            )
        self.mix = mix
        self.rng = rng
        self._samplers = {
            name: mix.profile(name).sampler(dataset_scale, demand_scale)
            for name in mix.interactions
        }
        self._next_id = 0

    def create(self, now: float) -> Request:
        """Draw an interaction and build a request arriving at ``now``."""
        name = self.mix.sample_interaction(self.rng)
        demands = self._samplers[name](self.rng)
        req = Request(
            req_id=self._next_id, interaction=name, arrival=now, demands=demands
        )
        self._next_id += 1
        return req


class OpenLoopGenerator:
    """Nonhomogeneous-Poisson arrivals following a user trace.

    The instantaneous arrival rate is ``users(t) / think_time``. Gaps
    are drawn from the rate at the previous arrival and capped at
    ``0.5 s`` so the rate is re-sampled through fast bursts; over the
    5 s knot spacing of the built-in traces this is an accurate
    piecewise approximation of the exact thinning construction.
    """

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        trace: Trace,
        factory: RequestFactory,
        rng: np.random.Generator,
        think_time: float = 2.0,
    ) -> None:
        if think_time <= 0:
            raise ConfigurationError(f"think_time must be > 0, got {think_time!r}")
        self.sim = sim
        self.app = app
        self.trace = trace
        self.factory = factory
        self.rng = rng
        self.think_time = think_time
        self.generated = 0
        # Client-deadline state (the request-timeout fault class): while
        # a deadline is set, every new arrival is watched; one that
        # misses the deadline or fails (server crash) is re-issued as a
        # fresh physical request up to ``max_retries`` times.
        self.retried = 0
        self.timeouts = 0
        self.abandoned = 0
        self._deadline: float | None = None
        self._max_retries = 0
        self._watch: dict[int, tuple[object, int, float]] = {}
        self._stopped = False
        self._suspended = False
        self._next_event: EventHandle | None = None
        app.on_complete(self._on_request_complete)
        app.on_fail(self._on_request_fail)

    def start(self) -> None:
        """Begin generating at the current simulation time."""
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating new arrivals (in-flight requests finish)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # fluid-mode hand-off (hybrid simulation)
    # ------------------------------------------------------------------
    def suspend(self) -> None:
        """Pause arrival generation without tearing the generator down.

        The pending next-arrival event is cancelled; requests already in
        flight keep draining through the discrete machinery. Used by the
        :class:`~repro.sim.governor.ModeGovernor` when the fluid
        integrator takes over the arrival stream.
        """
        self._suspended = True
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def resume(self) -> None:
        """Resume arrival generation at the current simulation time."""
        if not self._suspended:
            return
        self._suspended = False
        if not self._stopped:
            self._schedule_next()

    # ------------------------------------------------------------------
    # client deadline + capped retry (fault injection)
    # ------------------------------------------------------------------
    def set_client_timeout(self, deadline: float, max_retries: int = 2) -> None:
        """Give subsequent arrivals a response deadline with retries.

        A watched request that has not completed within ``deadline``
        seconds counts as a timeout: the client abandons it (the
        original keeps consuming server resources, as a real HTTP
        request does after the socket closes) and re-issues a fresh
        physical request whose ``arrival`` is backdated to the first
        attempt — so recorded tail latencies account for the full
        client-perceived wait across retries. Failed requests (server
        crash) retry immediately. After ``max_retries`` the interaction
        is abandoned for good.
        """
        if deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {deadline!r}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries!r}"
            )
        self._deadline = float(deadline)
        self._max_retries = int(max_retries)

    def clear_client_timeout(self) -> None:
        """Stop watching *new* arrivals (in-flight watches keep their
        deadline — they were issued under it)."""
        self._deadline = None

    def rate_at(self, t: float) -> float:
        """Arrival rate (requests/second) implied by the trace at ``t``."""
        return self.trace.users_at(t) / self.think_time

    def _schedule_next(self) -> None:
        if self._stopped or self._suspended:
            return
        now = self.sim.now
        if now >= self.trace.duration:
            return
        rate = self.rate_at(now)
        if rate <= 1e-9:
            self._next_event = self.sim.schedule_after(_MAX_GAP, self._tick_idle)
            return
        gap = float(self.rng.exponential(1.0 / rate))
        if gap > _MAX_GAP:
            self._next_event = self.sim.schedule_after(_MAX_GAP, self._tick_idle)
        else:
            self._next_event = self.sim.schedule_after(gap, self._arrive)

    def _tick_idle(self) -> None:
        # No arrival happened in this re-evaluation slot; just resample.
        self._schedule_next()

    def _arrive(self) -> None:
        if self._stopped:
            return
        req = self.factory.create(self.sim.now)
        self.generated += 1
        self._submit_watched(req, attempt=0, first_arrival=req.arrival)
        self._schedule_next()

    def _submit_watched(
        self, req: Request, attempt: int, first_arrival: float
    ) -> None:
        if self._deadline is not None:
            handle = self.sim.schedule_after(
                self._deadline, self._deadline_expired, req.req_id
            )
            self._watch[req.req_id] = (handle, attempt, first_arrival)
        self.app.submit(req)

    def _retry(self, attempt: int, first_arrival: float) -> None:
        req = self.factory.create(self.sim.now)
        # Backdate so the recorded response time spans every attempt.
        req.arrival = first_arrival
        self.generated += 1
        self.retried += 1
        self._submit_watched(req, attempt, first_arrival)

    def _deadline_expired(self, req_id: int) -> None:
        entry = self._watch.pop(req_id, None)
        if entry is None:
            return  # completed or failed in the same instant
        _handle, attempt, first_arrival = entry
        self.timeouts += 1
        if attempt < self._max_retries and not self._stopped:
            self._retry(attempt + 1, first_arrival)
        else:
            self.abandoned += 1

    def _on_request_complete(self, request: Request) -> None:
        entry = self._watch.pop(request.req_id, None)
        if entry is not None and entry[0] is not None:
            entry[0].cancel()

    def _on_request_fail(self, request: Request) -> None:
        entry = self._watch.pop(request.req_id, None)
        if entry is None:
            return  # not watched: no timeout fault active at issue time
        handle, attempt, first_arrival = entry
        if handle is not None:
            handle.cancel()
        if attempt < self._max_retries and not self._stopped:
            self._retry(attempt + 1, first_arrival)
        else:
            self.abandoned += 1


class ClosedLoopGenerator:
    """A fixed population of synchronous users.

    Each user loops submit → wait for completion → think → submit.
    ``think_time = 0`` pins the system concurrency to exactly
    ``num_users`` (the Fig. 3/7 sweep mode); a positive value draws
    exponential think times.

    A client deadline (:meth:`set_client_timeout`, set by the fault
    injector) models abandonment: a user whose request has not
    completed within the deadline gives up and immediately re-issues.
    The abandoned request keeps consuming server resources until it
    finishes (as a real HTTP request does after the client hangs up),
    which is what makes tight client timeouts *amplify* overload —
    the classic retry-storm dynamic.
    """

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        num_users: int,
        factory: RequestFactory,
        rng: np.random.Generator,
        think_time: float = 0.0,
    ) -> None:
        if num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {num_users!r}")
        if think_time < 0:
            raise ConfigurationError(f"think_time must be >= 0, got {think_time!r}")
        self.sim = sim
        self.app = app
        self.num_users = num_users
        self.factory = factory
        self.rng = rng
        self.think_time = think_time
        self.timeout: float | None = None
        self.generated = 0
        self.timeouts = 0
        # Closed users re-issue on completion anyway, so a timeout never
        # *retries* (that would double-issue); these counters exist for
        # interface parity with the open generator's resilience summary.
        self.retried = 0
        self.abandoned = 0
        self._stopped = False
        self._pending: dict[int, object] = {}
        app.on_complete(self._on_complete)
        # A request failed by a server crash frees its user exactly like
        # a completion: the user sees an error page and re-issues.
        app.on_fail(self._on_complete)

    def start(self) -> None:
        """Launch all users at the current instant."""
        for _ in range(self.num_users):
            self.sim.schedule_after(0.0, self._issue)

    def stop(self) -> None:
        """Users stop re-issuing after their current request."""
        self._stopped = True

    # ------------------------------------------------------------------
    # client deadline (fault injection) — interface parity with the
    # open-loop generator so the FaultInjector can drive either.
    # ------------------------------------------------------------------
    def set_client_timeout(self, deadline: float, max_retries: int = 2) -> None:
        """Give subsequently issued requests an abandonment deadline.

        In the closed model the user abandons the slow request and
        re-issues on its next cycle (population is conserved), so
        ``max_retries`` has no separate meaning here and is ignored.
        """
        if deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {deadline!r}")
        self.timeout = float(deadline)

    def clear_client_timeout(self) -> None:
        """New requests are issued without a deadline again."""
        self.timeout = None

    def _issue(self) -> None:
        if self._stopped:
            return
        req = self.factory.create(self.sim.now)
        self.generated += 1
        handle = None
        if self.timeout is not None:
            handle = self.sim.schedule_after(
                self.timeout, self._abandon, req.req_id
            )
        self._pending[req.req_id] = handle
        self.app.submit(req)

    def _abandon(self, req_id: int) -> None:
        """The user gave up waiting; the request stays in the system."""
        if req_id not in self._pending:
            return  # completed in the same instant
        del self._pending[req_id]
        self.timeouts += 1
        self._next_cycle()

    def _on_complete(self, request: Request) -> None:
        handle = self._pending.pop(request.req_id, "absent")
        if handle == "absent":
            return  # not ours, or already abandoned by its user
        if handle is not None:
            handle.cancel()
        self._next_cycle()

    def _next_cycle(self) -> None:
        if self._stopped:
            return
        if self.think_time == 0.0:
            self._issue()
        else:
            delay = float(self.rng.exponential(self.think_time))
            self.sim.schedule_after(delay, self._issue)
