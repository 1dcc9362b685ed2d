"""The production PS server and demand draw against the reference model.

A seeded random walk applies the same operations to a production
:class:`~repro.ntier.server.Server` and a
:class:`~tests.ntier.reference_server.ReferenceServer` on twin
simulators and demands equal accumulators after every step; whole runs
with the reference model swapped in must give the same artifact.
"""

import numpy as np
import pytest

import repro.scaling.factory as server_factory
from repro.experiments.artifact import RunSpec
from repro.experiments.calibration import db_capacity_io
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.faults import parse_faults
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.pools import FifoPool
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sim.engine import Simulator
from repro.workload.generator import RequestFactory
from repro.workload.shapes import steady_trace_csv

from tests.ntier.reference_server import ReferenceServer, reference_create

#: A contended DB with CPU and disk, the disk saturating first (at
#: 7.5, the CPU at 42.9), so both min() branches of the busy share
#: occur. Unit counts that are not powers of two make the division
#: round, so a reassociated busy expression shows.
TWO_RESOURCES = CapacityModel(
    [Resource("cpu", 3.0, 0.07), Resource("disk", 1.5, 0.2)],
    ContentionModel(8e-3, 4e-4),
)

_OPS = ("admit", "work", "release", "advance", "abort", "capacity",
        "absorb", "sync", "resize")
_WEIGHTS = np.array([6, 5, 4, 5, 1, 1, 1, 1, 1], dtype=float)


class _Side:
    """One server on its own simulator, plus which requests have a
    phase pending (queued with their first phase, running, or due)."""

    def __init__(self, server_cls) -> None:
        self.sim = Simulator()
        self.server = server_cls(
            self.sim, ServerConfig("db-1", "db", TWO_RESOURCES, 3)
        )
        self.requests: dict[int, Request] = {}
        self.busy: set[int] = set()

    @property
    def queued(self) -> list[int]:
        """Waiting for a worker thread."""
        return [r.req_id for r in self.server.threads.waiting_tokens()]

    @property
    def idle(self) -> list[int]:
        """Admitted, between phases."""
        return [r.req_id for r in self.server.occupants()
                if r.req_id not in self.busy]

    @property
    def working(self) -> list[int]:
        """Admitted, in a phase."""
        return [r.req_id for r in self.server.occupants()
                if r.req_id in self.busy]

    def done(self, request: Request) -> None:
        # A zero-demand phase still completes after its request is aborted.
        self.busy.discard(request.req_id)

    def apply(self, op: str, arg) -> None:
        server = self.server
        if op == "admit":
            req_id, demand, release = arg
            req = Request(req_id, "X", self.sim.now, {"db": demand})
            self.requests[req_id] = req
            self.busy.add(req_id)
            server.admit(req, demand, self.done, release)
        elif op == "work":
            req_id, demand = arg
            self.busy.add(req_id)
            server.work(self.requests[req_id], demand, self.done)
        elif op == "release":
            server.release(self.requests[arg])
        elif op == "advance":
            self.sim.run(until=self.sim.now + arg)
        elif op == "abort":
            req = self.requests[arg]
            self.busy.discard(arg)
            if not server.abort(req):
                assert server.threads.cancel(req)
        elif op == "capacity":
            server.set_capacity(server.capacity.scaled_cores(*arg))
        elif op == "absorb":
            server.absorb_flow(**arg)
        elif op == "sync":
            server.sync_monitors()
        else:
            server.threads.resize(arg)

    def state(self) -> tuple:
        server = self.server
        event = server._completion_event
        return (
            server.concurrency_integral,
            list(server.util_integral.items()),
            server.latency_total,
            server.completions,
            None if event is None else event.time,
            self.sim.now,
            server.admitted,
            server.active,
            [r.req_id for r in server.occupants()],
            self.queued,
            self.idle,
            self.working,
        )


def _pick_demand(rng: np.random.Generator) -> float:
    """Zero, or a fixed demand (phases started in one instant finish in
    one), or an exponential draw."""
    u = rng.random()
    if u < 0.15:
        return 0.0
    return 0.01 if u < 0.35 else float(rng.exponential(0.02))


def _pick_arg(op: str, side: _Side, rng: np.random.Generator, next_id: int):
    """An argument for ``op``, or None when ``op`` does not apply now."""
    if op == "admit":
        return next_id, _pick_demand(rng), bool(rng.random() < 0.4)
    if op in ("work", "release"):
        idle = side.idle
        if not idle:
            return None
        req_id = idle[rng.integers(len(idle))]
        if op == "release":
            return req_id
        return req_id, _pick_demand(rng)
    if op == "advance":
        return float(rng.choice([0.0, 1e-4, rng.exponential(0.01), 0.2]))
    if op == "abort":
        pool = side.queued + side.idle + side.working
        return pool[rng.integers(len(pool))] if pool else None
    if op == "capacity":
        return str(rng.choice(["cpu", "disk"])), float(rng.choice([0.5, 1.5, 2.5, 3.0]))
    if op == "absorb":
        active = float(rng.choice([0.0, float(rng.integers(1, 20)),
                                   rng.uniform(0.0, 30.0)]))
        return dict(
            dt=float(rng.uniform(0.0, 0.05)),
            active=active,
            admitted=active + float(rng.uniform(0.0, 5.0)),
            completions=int(rng.integers(0, 4)),
            latency=float(rng.uniform(0.0, 0.1)),
        )
    if op == "sync":
        return ()
    return int(rng.integers(1, 6))


@pytest.mark.parametrize("seed", range(12))
def test_server_matches_reference_step_by_step(seed):
    rng = np.random.default_rng(seed)
    ours, ref = _Side(Server), _Side(ReferenceServer)
    next_id = 0
    for _ in range(600):
        op = str(rng.choice(_OPS, p=_WEIGHTS / _WEIGHTS.sum()))
        arg = _pick_arg(op, ours, rng, next_id)
        if arg is None:
            continue
        if op == "admit":
            next_id += 1
        ours.apply(op, arg)
        ref.apply(op, arg)
        assert ours.state() == ref.state(), op
    ours.sim.run()
    ref.sim.run()
    assert ours.state() == ref.state()
    assert ours.server.completions > 10
    assert ours.server.util_integral["disk"] > 0.0


_ACTIVE_GRID = (
    list(range(1, 61))
    + np.linspace(1e-3, 60.0, 997).tolist()
    + [0.5, 7.5, 3.0 / 0.07, 10.0, 28.5, 1e-9, 1e6]
)


#: ``half-cpu`` has a fractional saturation point and ``int-units``
#: no contention at all (sigma = kappa = 0).
_CAPACITIES = pytest.mark.parametrize(
    "capacity",
    [
        TWO_RESOURCES,
        TWO_RESOURCES.scaled_cores("cpu", 0.5),
        db_capacity_io(),
        CapacityModel([Resource("cpu", 1, 0.1)]),
    ],
    ids=["cpu+disk", "half-cpu", "db-io", "int-units"],
)


@_CAPACITIES
def test_accrual_matches_utilization_bit_for_bit(capacity):
    names = [r.name for r in capacity.resources]
    for active in _ACTIVE_GRID:
        for dt in (1e-3, 0.05, 0.37, 1.0):
            for start in (0.0, 0.1):
                integral = dict.fromkeys(names, start)
                capacity.accrue_busy(integral, dt, active)
                assert integral == {
                    name: start + dt * capacity.utilization(name, active, active)
                    for name in names
                }, (active, dt)


def _assert_table_rates(capacity: CapacityModel) -> Server:
    """Drive a server over 1 <= active <= admitted <= 64; returns the
    last one (64 admitted, all active)."""
    for admitted in range(1, 65):
        server = Server(Simulator(), ServerConfig("db-1", "db", capacity, 64))
        requests = [Request(i, "X", 0.0, {"db": 1.0}) for i in range(admitted)]
        for req in requests:
            server.admit(req, 0.0, lambda r: None)
        for active, req in enumerate(requests, start=1):
            server.work(req, 1.0, lambda r: None)
            assert server._rate_per_job == (
                capacity.work_rate(active, admitted) / active
            ), (active, admitted)
    return server


@_CAPACITIES
def test_table_rate_matches_work_rate_bit_for_bit(capacity):
    """The server's rate, with the penalty read from the model's table,
    is ``work_rate(active, admitted) / active`` bit for bit on the
    grid, for the model and for a copy from scaled_cores() (a fresh
    table), and set_capacity() rebinds the table."""
    scaled = capacity.scaled_cores(capacity.critical_resource.name, 2.5)
    server = _assert_table_rates(capacity)
    _assert_table_rates(scaled)
    server.set_capacity(scaled)
    assert server._rate_per_job == scaled.work_rate(64, 64) / 64
    for model in (capacity, scaled):
        assert set(range(1, 65)) <= set(model.penalties)
        assert all(
            p == model.contention.penalty(m) for m, p in model.penalties.items()
        )


def _smoke(**overrides) -> ScenarioConfig:
    fields = dict(name="cli", trace_name="dual_phase", load_scale=300.0,
                  duration=60.0, seed=2)
    return ScenarioConfig(**{**fields, **overrides})


def _discrete_smoke(tmp_path) -> RunSpec:
    return RunSpec("conscale", _smoke())


def _crash_smoke(tmp_path) -> RunSpec:
    return RunSpec("conscale", _smoke(topology=(1, 2, 2)),
                   faults=parse_faults("crash:db:24"))


def _queued_crash_smoke(tmp_path) -> RunSpec:
    # At t=50 the crashed app server has requests queued for a worker
    # thread, so the unwinding withdraws them from its pool.
    return RunSpec("conscale", _smoke(topology=(1, 2, 2)),
                   faults=parse_faults("crash:app:50"))


def _hybrid_smoke(tmp_path) -> RunSpec:
    trace = steady_trace_csv(str(tmp_path), users=4000.0, duration=120.0)
    return RunSpec("conscale", _smoke(trace_name=trace, duration=120.0, seed=11,
                                      topology=(1, 2, 2), mode="hybrid"))


@pytest.mark.parametrize(
    "build",
    [_discrete_smoke, _crash_smoke, _queued_crash_smoke, _hybrid_smoke],
    ids=["discrete", "crash", "queued-crash", "hybrid"],
)
def test_runs_match_the_reference_model(build, tmp_path, monkeypatch):
    """The CI smoke specs, and a crash that fails requests still queued
    for a thread, give the same artifact with the reference server and
    demand draw swapped in."""
    spec = build(tmp_path)
    production = execute_spec(spec).signature()

    servers = []

    def reference_server(sim, config):
        servers.append(ReferenceServer(sim, config))
        return servers[-1]

    thread_cancels = []
    cancel = FifoPool.cancel

    def counting_cancel(pool, token):
        found = cancel(pool, token)
        if found and pool.name.endswith(".threads"):
            thread_cancels.append(token)
        return found

    calibration = spec.config.calibration
    monkeypatch.setattr(server_factory, "Server", reference_server)
    monkeypatch.setattr(RequestFactory, "create", reference_create(
        calibration.dataset_scale, spec.config.demand_scale))
    monkeypatch.setattr(FifoPool, "cancel", counting_cancel)
    artifact = execute_spec(spec)
    assert servers and sum(s.completions for s in servers) > 0
    if build is _queued_crash_smoke:
        assert thread_cancels
    assert artifact.signature() == production
