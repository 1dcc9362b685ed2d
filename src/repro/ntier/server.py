"""Processor-sharing server with concurrency-dependent capacity.

Each component server (Apache, Tomcat, MySQL instance) is simulated as
an egalitarian processor-sharing station whose *total* service rate
follows the :class:`~repro.ntier.capacity.CapacityModel` — i.e. the
paper's ascending/stable/descending curve — as a function of

* ``a`` — requests actively computing here right now, and
* ``m`` — requests *admitted* (holding a worker thread), which includes
  requests blocked on a downstream tier and drives the multithreading
  overhead penalty.

PS with piecewise-constant rate is simulated exactly and cheaply with a
shared *service-credit clock*: every active request accrues credit at
the same instantaneous rate ``work_rate(a, m) / a``; a request finishes
when its accrued credit reaches its drawn demand. Only the earliest
completion needs a calendar event, and only that one event is moved
when ``a`` or ``m`` changes — O(log a) per transition. The rate reads
the contention penalty from the capacity model's table by admitted
count, and the completion event that fired is re-armed for the next
phase instead of allocating a new one. Admitting a request starts its
first phase, and a last phase returns its thread as it completes, so
each transition stamps the event once.

The server also keeps exactly the four monotone monitoring
accumulators that the 50 ms interval monitor, the 1 s metric warehouse
and the concurrency sweep difference: ``concurrency_integral``
(time-weighted admitted count), ``completions`` (requests that returned
their thread), ``latency_total`` (per-server latency since admission)
and ``util_integral`` (busy time per resource). That is how the paper's
fine-grained request-log analysis is reproduced without storing every
event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.errors import SimulationError
from repro.ntier.capacity import CapacityModel
from repro.ntier.pools import FifoPool
from repro.ntier.request import Request
from repro.sim.engine import Simulator
from repro.sim.event import EventHandle

__all__ = ["Server", "ServerConfig"]


@dataclass(slots=True)
class ServerConfig:
    """Static description of one server instance."""

    name: str
    tier: str
    capacity: CapacityModel
    thread_limit: int


class _ActiveJob:
    """Bookkeeping for one request currently in the PS active set.

    The ordering key lives in the heap entry tuple
    ``(finish_credit, seq, job)`` rather than on the job itself, so
    ``heapq`` compares entirely in C (``seq`` is unique — two jobs are
    never compared). ``release`` marks the request's last phase on
    this server: its completion returns the worker thread.
    """

    __slots__ = ("request", "on_done", "release", "done")

    def __init__(
        self,
        request: Request,
        on_done: Callable[[Request], None],
        release: bool,
    ) -> None:
        self.request = request
        self.on_done = on_done
        self.release = release
        self.done = False


#: A PS heap entry: ``(finish_credit, seq, job)``.
_JobEntry = tuple[float, int, _ActiveJob]


class Server:
    """One simulated component server (a VM running Apache/Tomcat/MySQL)."""

    def __init__(self, sim: Simulator, config: ServerConfig) -> None:
        self.sim = sim
        self.config = config
        self.name = config.name
        self.tier = config.tier
        self._bind_capacity(config.capacity)
        self.threads = FifoPool(f"{config.name}.threads", config.thread_limit)

        # --- PS state -------------------------------------------------
        self._credit = 0.0  # shared per-job service credit
        self._heap: list[_JobEntry] = []
        self._active = 0  # live (non-done) jobs in the heap
        self._admitted = 0  # threads held (active + blocked)
        self._seq = 0
        self._last_update = sim.now
        self._rate_per_job = 0.0
        self._completion_event: EventHandle | None = None
        # The completion event that last fired, kept for re-arming.
        self._fired: EventHandle | None = None
        self._admitted_at: dict[int, float] = {}
        self._requests: dict[int, Request] = {}

        # --- monotone monitoring accumulators --------------------------
        self.concurrency_integral = 0.0  # ∫ admitted dt
        self.completions = 0  # requests that fully departed
        self.latency_total = 0.0  # sum of per-server response times
        self.util_integral: dict[str, float] = {
            r.name: 0.0 for r in self.capacity.resources
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        """Current concurrency (requests holding a worker thread)."""
        return self._admitted

    @property
    def active(self) -> int:
        """Requests actively computing (admitted minus blocked)."""
        return self._active

    @property
    def outstanding(self) -> int:
        """Requests admitted plus requests queued for a worker thread —
        what a load balancer's connection count sees."""
        return self._admitted + self.threads.queued

    @property
    def is_idle(self) -> bool:
        """True when no request is admitted, queued, or waiting."""
        return self._admitted == 0 and self.threads.queued == 0

    def set_capacity(self, capacity: CapacityModel) -> None:
        """Swap the capacity model at runtime (vertical scaling).

        The PS credit clock is advanced under the old rate first, so
        in-flight requests complete exactly the work they accrued; the
        new rate applies from this instant. Monitoring integrals keyed
        by resource name are preserved for resources common to both
        models and created for new ones.
        """
        self._advance_clock()
        self._bind_capacity(capacity)
        for res in capacity.resources:
            self.util_integral.setdefault(res.name, 0.0)
        self._reschedule()

    def _bind_capacity(self, capacity: CapacityModel) -> None:
        """Bind the model and what ``_reschedule`` reads of it."""
        self.capacity = capacity
        self._a_sat = capacity.saturation_concurrency
        self._penalties = capacity.penalties

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def admit(
        self,
        request: Request,
        demand: float,
        on_done: Callable[[Request], None],
        release: bool = False,
    ) -> None:
        """Ask for a worker thread; once granted, run the request's first
        phase here: ``demand`` work-seconds, then ``on_done(request)``.

        Admission and the phase start are one transition, so the
        completion event is stamped once. With ``release`` the phase is
        also the request's last here: its completion returns the thread
        as :meth:`work`'s does. Without it the request keeps its thread
        until :meth:`work` or :meth:`release`. The per-server response
        time is measured from admission (not queue entry), so it
        excludes upstream pool waits — matching a request-processing
        log on the real server.
        """
        self.threads.acquire(request, self._granted, demand, on_done, release)

    def _granted(
        self,
        request: Request,
        demand: float,
        on_done: Callable[[Request], None],
        release: bool,
    ) -> None:
        self._advance_clock()
        self._admitted += 1
        self._admitted_at[request.req_id] = self.sim.now
        self._requests[request.req_id] = request
        if demand > 0.0:
            self._push(request, demand, on_done, release)
            return
        # The admission still moves the rate (the penalty counts it).
        self._reschedule()
        self.sim.schedule_after(
            0.0, self._zero_phase_done, request, on_done, release
        )

    def work(
        self,
        request: Request,
        demand: float,
        on_done: Callable[[Request], None],
    ) -> None:
        """Run the request's last PS phase here: ``demand`` work-seconds,
        then the worker thread goes back (as :meth:`release`) just
        before ``on_done(request)`` runs.

        The request must already be admitted, between phases (e.g. a
        Tomcat thread back from MySQL): while it waits its thread still
        counts toward the overhead penalty via ``admitted``.
        """
        if request.req_id not in self._admitted_at:
            raise SimulationError(
                f"{self.name}: work() for request {request.req_id} "
                "which was never admitted"
            )
        if demand <= 0.0:
            # Zero-cost phase: complete on the next event tick to keep
            # callback depth bounded.
            self.sim.schedule_after(
                0.0, self._zero_phase_done, request, on_done, True
            )
            return
        self._advance_clock()
        self._push(request, demand, on_done, True)

    def _push(
        self,
        request: Request,
        demand: float,
        on_done: Callable[[Request], None],
        release: bool,
    ) -> None:
        """Put a phase in the active set and stamp the completion event
        (the clock is already advanced)."""
        job = _ActiveJob(request, on_done, release)
        heapq.heappush(self._heap, (self._credit + demand, self._seq, job))
        self._seq += 1
        self._active += 1
        self._reschedule()

    def _zero_phase_done(
        self,
        request: Request,
        on_done: Callable[[Request], None],
        release: bool,
    ) -> None:
        """A zero-cost phase's completion, one event tick after it began."""
        # An aborted request's thread went back at the abort.
        if release and request.req_id in self._admitted_at:
            self.release(request)
        on_done(request)

    def release(self, request: Request) -> None:
        """Return the worker thread; add the time since admission to
        ``latency_total``."""
        admitted_at = self._admitted_at.pop(request.req_id, None)
        if admitted_at is None:
            raise SimulationError(
                f"{self.name}: release() for request {request.req_id} "
                "which is not admitted"
            )
        self._advance_clock()
        self._admitted -= 1
        self._requests.pop(request.req_id, None)
        self.completions += 1
        self.latency_total += self.sim.now - admitted_at
        self.threads.release()
        self._reschedule()

    def abort(self, request: Request) -> bool:
        """Forcibly evict an admitted request (server crash unwinding).

        The worker thread is returned *without* counting a completion
        or latency sample — the request never finished here. Any live
        PS job is deactivated in place (its heap entry is dropped
        lazily). Returns False when the request is not admitted, so
        callers can fall back to a queue cancel.
        """
        if self._admitted_at.pop(request.req_id, None) is None:
            return False
        self._advance_clock()
        for entry in self._heap:
            job = entry[2]
            if job.request is request and not job.done:
                job.done = True
                self._active -= 1
                break
        self._admitted -= 1
        self._requests.pop(request.req_id, None)
        self.threads.release()
        self._reschedule()
        return True

    def occupants(self) -> list[Request]:
        """Requests currently admitted, in admission order."""
        return list(self._requests.values())

    # ------------------------------------------------------------------
    # PS mechanics
    # ------------------------------------------------------------------
    def _advance_clock(self) -> None:
        """Accrue credit and monitoring integrals up to `sim.now`."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0.0:
            active = self._active
            if active > 0:
                self._credit += dt * self._rate_per_job
                self.capacity.accrue_busy(self.util_integral, dt, active)
            self.concurrency_integral += dt * self._admitted
            self._last_update = now

    def sync_monitors(self) -> None:
        """Bring the monitoring integrals up to the current instant.

        Called by interval monitors before reading the accumulators so
        interval boundaries are exact even when no event fell on them.
        """
        self._advance_clock()

    # ------------------------------------------------------------------
    # fluid-mode telemetry hand-off
    # ------------------------------------------------------------------
    def absorb_flow(
        self,
        *,
        dt: float,
        active: float,
        admitted: float,
        completions: int = 0,
        latency: float = 0.0,
    ) -> None:
        """Advance the monitoring accumulators with aggregate flow state.

        The fluid integrator has no per-request events, but controllers
        and the warehouse only ever read the four monotone accumulators,
        so they read the integrator's per-step occupancy/throughput
        deposited here: ``admitted`` over the step ``dt`` goes to
        ``concurrency_integral``, ``active`` to ``util_integral``, and
        ``completions`` and their ``latency`` mass to ``completions``
        and ``latency_total``. ``active``/``admitted`` are this server's
        share of the tier's fluid occupancy; the PS credit clock is
        advanced first so discrete stragglers draining through a fluid
        phase keep exact accounting. The whole step lands at once: a
        monitor tick shorter than ``dt`` reads it all in the tick after
        the deposit and none of it in the others (ROADMAP item 11).
        """
        self._advance_clock()
        self.concurrency_integral += dt * admitted
        if active > 0.0:
            self.capacity.accrue_busy(self.util_integral, dt, active)
        self.completions += completions
        self.latency_total += latency

    def _reschedule(self) -> None:
        """Recompute the PS rate and (re)schedule the next completion.

        This fires on *every* admission, departure, phase start, and
        capacity change, so the pending completion event keeps its
        handle: it is moved with the calendar's reschedule (one sequence
        number, no new handle), and is kept untouched when the time is
        unchanged.
        """
        # Drop already-finished heap entries lazily.
        heap = self._heap
        while heap and heap[0][2].done:
            heapq.heappop(heap)
        ev = self._completion_event
        active = self._active
        if active <= 0:
            self._rate_per_job = 0.0
            if ev is not None:
                ev.cancel()
                self._completion_event = None
            return
        # CapacityModel.work_rate(active, admitted), operation for
        # operation, with the penalty read from the model's table.
        admitted = self._admitted
        m = admitted if admitted >= active else active
        a_sat = self._a_sat
        rate = (active if active < a_sat else a_sat) * self._penalties[m] / active
        self._rate_per_job = rate
        if not heap:  # pragma: no cover - defensive, implies bookkeeping bug
            raise SimulationError(f"{self.name}: active={active} but heap empty")
        remaining = heap[0][0] - self._credit
        now = self.sim.now
        target = now if remaining <= 0.0 else now + remaining / rate
        if ev is None:
            fired = self._fired
            if fired is None:
                self._completion_event = self.sim.schedule(target, self._complete)
            else:
                self._fired = None
                self._completion_event = self.sim.rearm(fired, target)
        elif ev.time != target:
            self._completion_event = self.sim.reschedule(ev, target)

    def _complete(self) -> None:
        """Fire every job whose credit requirement has been met.

        Finished jobs are called back in heap order; a releasing job
        returns its thread just before its ``on_done``. When the first
        of them releases, this skips its own stamp: that release
        re-stamps the completion event before anything else is
        scheduled, so the calendar sees one stamp for the transition.
        """
        self._advance_clock()
        self._fired = self._completion_event
        self._completion_event = None
        finished: list[_ActiveJob] = []
        heap = self._heap
        # A tiny epsilon absorbs float round-off so a job scheduled to
        # finish exactly now is not left 1e-18 credit short.
        threshold = self._credit + 1e-12
        while heap and (heap[0][2].done or heap[0][0] <= threshold):
            job = heapq.heappop(heap)[2]
            if job.done:
                continue
            job.done = True
            self._active -= 1
            finished.append(job)
        if not finished or not finished[0].release:
            self._reschedule()
        for job in finished:
            request = job.request
            if job.release:
                self.release(request)
            job.on_done(request)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Server({self.name!r}, admitted={self._admitted}, "
            f"active={self._active}, queued={self.threads.queued})"
        )
