"""Reference discrete model: the textbook PS server and demand draw.

:class:`repro.ntier.server.Server` keeps an admission instant per
request, accrues busy time through one
:meth:`~repro.ntier.capacity.CapacityModel.accrue_busy` call, hands
its pool the admission continuation as arguments and stamps its
completion event once per transition (an admission starts the first
phase in the same stamp; a last phase's release stamps for its
completion), and :class:`~repro.workload.generator.RequestFactory` draws demands from
samplers bound once. Those are pure performance structures. Fed the
same operations, the production server must leave exactly the
accumulators and the pending completion time of :class:`ReferenceServer`
below, which opens a visit record per admission, wraps each admission
in a fresh closure that admits and then starts the first phase as a
step of its own (the phase start its :meth:`work` makes), stamps the
completion event after every transition (its ``_complete`` stamps,
then releases, then calls back) and accrues busy
time one :meth:`~repro.ntier.capacity.CapacityModel.utilization` call
per resource; and a sampler must make exactly the generator calls of
:func:`reference_draw`, which recomputes every tier's parameters per
request.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.ntier.capacity import CapacityModel
from repro.ntier.demand import DemandProfile
from repro.ntier.pools import FifoPool
from repro.ntier.request import Request
from repro.ntier.server import ServerConfig
from repro.sim.engine import Simulator
from repro.sim.event import EventHandle


@dataclass(slots=True)
class _Visit:
    """One request's passage through one server, from admission."""

    server_name: str
    arrival: float
    departure: float | None = None

    @property
    def latency(self) -> float:
        if self.departure is None:
            raise ValueError(f"visit to {self.server_name} has not completed")
        return self.departure - self.arrival


class _ActiveJob:
    __slots__ = ("request", "on_done", "release", "done")

    def __init__(
        self, request: Request, on_done: Callable[[Request], None], release: bool
    ) -> None:
        self.request = request
        self.on_done = on_done
        self.release = release
        self.done = False


class ReferenceServer:
    """A drop-in :class:`~repro.ntier.server.Server` with visit records."""

    def __init__(self, sim: Simulator, config: ServerConfig) -> None:
        self.sim = sim
        self.config = config
        self.name = config.name
        self.tier = config.tier
        self.capacity = config.capacity
        self.threads = FifoPool(f"{config.name}.threads", config.thread_limit)
        self._credit = 0.0
        self._heap: list[tuple[float, int, _ActiveJob]] = []
        self._active = 0
        self._admitted = 0
        self._seq = 0
        self._last_update = sim.now
        self._rate_per_job = 0.0
        self._completion_event: EventHandle | None = None
        self._visits: dict[int, _Visit] = {}
        self._requests: dict[int, Request] = {}
        self.concurrency_integral = 0.0
        self.completions = 0
        self.latency_total = 0.0
        self.util_integral: dict[str, float] = {
            r.name: 0.0 for r in self.capacity.resources
        }

    @property
    def admitted(self) -> int:
        return self._admitted

    @property
    def active(self) -> int:
        return self._active

    @property
    def outstanding(self) -> int:
        return self._admitted + self.threads.queued

    @property
    def is_idle(self) -> bool:
        return self._admitted == 0 and self.threads.queued == 0

    def set_capacity(self, capacity: CapacityModel) -> None:
        self._advance_clock()
        self.capacity = capacity
        for res in capacity.resources:
            self.util_integral.setdefault(res.name, 0.0)
        self._reschedule()

    def admit(
        self,
        request: Request,
        demand: float,
        on_done: Callable[[Request], None],
        release: bool = False,
    ) -> None:
        def granted(req: Request) -> None:
            self._granted(req)
            self._phase(req, demand, on_done, release)

        self.threads.acquire(request, granted)

    def _granted(self, request: Request) -> None:
        self._advance_clock()
        self._admitted += 1
        self._visits[request.req_id] = _Visit(self.name, self.sim.now)
        self._requests[request.req_id] = request
        self._reschedule()

    def work(
        self, request: Request, demand: float, on_done: Callable[[Request], None]
    ) -> None:
        self._phase(request, demand, on_done, True)

    def _phase(
        self,
        request: Request,
        demand: float,
        on_done: Callable[[Request], None],
        release: bool,
    ) -> None:
        if request.req_id not in self._visits:
            raise SimulationError(
                f"{self.name}: work() for request {request.req_id} "
                "which was never admitted"
            )
        if demand <= 0.0:

            def finish() -> None:
                if release and request.req_id in self._visits:
                    self.release(request)
                on_done(request)

            self.sim.schedule_after(0.0, finish)
            return
        self._advance_clock()
        job = _ActiveJob(request, on_done, release)
        heapq.heappush(self._heap, (self._credit + demand, self._seq, job))
        self._seq += 1
        self._active += 1
        self._reschedule()

    def release(self, request: Request) -> None:
        visit = self._visits.pop(request.req_id, None)
        if visit is None:
            raise SimulationError(
                f"{self.name}: release() for request {request.req_id} "
                "which is not admitted"
            )
        self._advance_clock()
        self._admitted -= 1
        self._requests.pop(request.req_id, None)
        visit.departure = self.sim.now
        self.completions += 1
        self.latency_total += visit.latency
        self.threads.release()
        self._reschedule()

    def abort(self, request: Request) -> bool:
        visit = self._visits.pop(request.req_id, None)
        if visit is None:
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
        visit.departure = self.sim.now
        self.threads.release()
        self._reschedule()
        return True

    def occupants(self) -> list[Request]:
        return list(self._requests.values())

    def _advance_clock(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0.0:
            if self._active > 0:
                self._credit += dt * self._rate_per_job
            self.concurrency_integral += dt * self._admitted
            if self._active > 0:
                for res in self.capacity.resources:
                    self.util_integral[res.name] += dt * self.capacity.utilization(
                        res.name, self._active, self._admitted
                    )
            self._last_update = now
        elif dt == 0.0:
            self._last_update = now

    def sync_monitors(self) -> None:
        self._advance_clock()

    def absorb_flow(
        self,
        *,
        dt: float,
        active: float,
        admitted: float,
        completions: int = 0,
        latency: float = 0.0,
    ) -> None:
        self._advance_clock()
        self.concurrency_integral += dt * admitted
        if active > 0.0:
            for res in self.capacity.resources:
                self.util_integral[res.name] += dt * self.capacity.utilization(
                    res.name, active, admitted
                )
        self.completions += completions
        self.latency_total += latency

    def _reschedule(self) -> None:
        heap = self._heap
        while heap and heap[0][2].done:
            heapq.heappop(heap)
        ev = self._completion_event
        if self._active <= 0:
            self._rate_per_job = 0.0
            if ev is not None:
                ev.cancel()
                self._completion_event = None
            return
        total_rate = self.capacity.work_rate(self._active, self._admitted)
        self._rate_per_job = total_rate / self._active
        if not heap:
            raise SimulationError(f"{self.name}: active={self._active} but heap empty")
        remaining = heap[0][0] - self._credit
        now = self.sim.now
        target = now if remaining <= 0.0 else now + remaining / self._rate_per_job
        if ev is None:
            self._completion_event = self.sim.schedule(target, self._complete)
        elif ev.time != target:
            self._completion_event = self.sim.reschedule(ev, target)

    def _complete(self) -> None:
        self._advance_clock()
        self._completion_event = None
        finished: list[_ActiveJob] = []
        heap = self._heap
        threshold = self._credit + 1e-12
        while heap and (heap[0][2].done or heap[0][0] <= threshold):
            job = heapq.heappop(heap)[2]
            if job.done:
                continue
            job.done = True
            self._active -= 1
            finished.append(job)
        self._reschedule()
        for job in finished:
            if job.release:
                self.release(job.request)
            job.on_done(job.request)


def reference_draw(
    profile: DemandProfile,
    rng: np.random.Generator,
    dataset_scale: float = 1.0,
    demand_scale: float = 1.0,
) -> dict[str, float]:
    """One request's per-tier demands, every parameter computed afresh."""
    out: dict[str, float] = {}
    for tier_name, td in profile.tiers.items():
        mean = td.effective_mean(dataset_scale) * demand_scale
        if td.cv == 0:
            out[tier_name] = mean
        elif profile.distribution == "lognormal":
            sigma_sq = float(np.log1p(td.cv * td.cv))
            mu = float(np.log(mean)) - 0.5 * sigma_sq
            out[tier_name] = float(rng.lognormal(mu, sigma_sq**0.5))
        else:
            shape = 1.0 / (td.cv * td.cv)
            out[tier_name] = float(rng.gamma(shape, mean / shape))
    return out


def reference_create(dataset_scale: float, demand_scale: float):
    """A ``RequestFactory.create`` that draws through :func:`reference_draw`
    at the given scales (the factory binds its own at construction)."""

    def create(self, now: float) -> Request:
        name = self.mix.sample_interaction(self.rng)
        demands = reference_draw(
            self.mix.profile(name), self.rng, dataset_scale, demand_scale
        )
        req = Request(
            req_id=self._next_id, interaction=name, arrival=now, demands=demands
        )
        self._next_id += 1
        return req

    return create
