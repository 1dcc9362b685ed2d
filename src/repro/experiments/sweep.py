"""Controlled concurrency sweeps (the Fig. 3 / Fig. 7 methodology).

Reproduces the paper's modified-generator experiments: a closed-loop
population with zero think time pins the offered concurrency at exactly
``N``; the target server's admission caps are set to the same ``N`` "to
avoid queue overflow", and steady-state throughput / response time are
measured per level. Sweeping ``N`` traces out the server's
concurrency-throughput curve, from which ``Q_lower`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.artifact import SCHEMA_VERSION, content_digest
from repro.experiments.engine import ExperimentEngine, inline_engine
from repro.ntier.app import APP, DB, WEB, NTierApplication, SoftResourceAllocation
from repro.ntier.capacity import CapacityModel
from repro.ntier.server import Server, ServerConfig
from repro.rng import RngRegistry
from repro.sim.engine import Simulator
from repro.workload.generator import ClosedLoopGenerator, RequestFactory
from repro.workload.mixes import WorkloadMix

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SweepTask",
    "concurrency_sweep",
    "find_q_lower",
    "cap_ramp_scatter",
]


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Steady-state metrics at one controlled concurrency level.

    ``concurrency`` is the nominal level (the admission cap);
    ``measured_concurrency`` is the target server's time-weighted mean
    concurrency over the measurement window — with a saturated upstream
    they coincide, which is the sweep's precondition.
    """

    concurrency: int
    measured_concurrency: float
    throughput: float
    response_time: float  # mean latency at the target server (seconds)
    utilization: float  # busy utilisation of the target's critical resource


@dataclass(frozen=True, slots=True)
class SweepResult:
    """A full concurrency sweep of one target server."""

    target_tier: str
    points: list[SweepPoint]

    def q_lower(self, tolerance: float = 0.05) -> int:
        """Minimum concurrency within ``tolerance`` of peak throughput."""
        return find_q_lower(
            [p.concurrency for p in self.points],
            [p.throughput for p in self.points],
            tolerance,
        )

    def peak_throughput(self) -> float:
        """Maximum steady-state throughput across the sweep."""
        return max(p.throughput for p in self.points)


def find_q_lower(levels, throughputs, tolerance: float = 0.05) -> int:
    """Smallest level whose throughput is within ``tolerance`` of peak."""
    levels = list(levels)
    tps = list(throughputs)
    if not levels or len(levels) != len(tps):
        raise ExperimentError("need equal-length non-empty levels/throughputs")
    tp_max = max(tps)
    for level, tp in sorted(zip(levels, tps)):
        if tp >= (1.0 - tolerance) * tp_max:
            return int(level)
    raise ExperimentError("unreachable: the max itself satisfies the bound")


@dataclass(frozen=True)
class SweepTask:
    """One picklable unit of sweep work: a single concurrency level.

    ``capacities`` is a sorted tuple of ``(tier, model)`` pairs so the
    task is hashable and content-digestible; the worker rebuilds the
    dict. Independent levels are exactly the grid shape the experiment
    engine parallelises and caches; :func:`_run_sweep_task` is
    module-level so a pool worker can import and run it by reference.
    """

    target_tier: str
    capacities: tuple[tuple[str, CapacityModel], ...]
    mix: WorkloadMix
    level: int
    topology: tuple[int, int, int]
    duration: float
    warmup_fraction: float
    dataset_scale: float
    demand_scale: float
    seed: int

    def digest(self) -> str:
        return content_digest(("sweep", SCHEMA_VERSION, self))


def _run_sweep_task(task: SweepTask) -> SweepPoint:
    """Module-level worker: execute one sweep level (engine unit)."""
    return _run_level(
        task.target_tier,
        dict(task.capacities),
        task.mix,
        task.level,
        task.topology,
        task.duration,
        task.warmup_fraction,
        task.dataset_scale,
        task.demand_scale,
        task.seed,
    )


def concurrency_sweep(
    target_tier: str,
    capacities: dict[str, CapacityModel],
    mix: WorkloadMix,
    levels: list[int],
    topology: tuple[int, int, int] = (1, 1, 1),
    duration: float = 30.0,
    warmup_fraction: float = 0.3,
    dataset_scale: float = 1.0,
    demand_scale: float = 1.0,
    seed: int = 7,
    engine: ExperimentEngine | None = None,
) -> SweepResult:
    """Sweep the offered concurrency against one tier.

    ``capacities`` maps each tier to its capacity model; non-target
    tiers should be generously provisioned (the paper uses 1/4/1 for
    MySQL sweeps and 1/1/4 for Tomcat sweeps) so the target is the
    single bottleneck. Levels are independent runs keyed by content
    digest, so the ``engine`` fans them out across its worker
    processes and caches each level.
    """
    if target_tier not in (WEB, APP, DB):
        raise ExperimentError(f"unknown target tier {target_tier!r}")
    if not levels:
        raise ExperimentError("need at least one concurrency level")
    if min(levels) < 1:
        raise ExperimentError(f"levels must be >= 1, got {min(levels)!r}")
    if not (math.isfinite(duration) and duration > 0):
        raise ExperimentError(f"duration must be finite and > 0, got {duration!r}")
    caps = tuple(sorted(capacities.items()))
    tasks = [
        SweepTask(
            target_tier=target_tier,
            capacities=caps,
            mix=mix,
            level=int(level),
            topology=tuple(topology),
            duration=duration,
            warmup_fraction=warmup_fraction,
            dataset_scale=dataset_scale,
            demand_scale=demand_scale,
            seed=seed,
        )
        for level in levels
    ]
    points = inline_engine(engine).run_tasks(
        _run_sweep_task,
        tasks,
        keys=[t.digest() for t in tasks],
        labels=[f"sweep:{target_tier}@{t.level}" for t in tasks],
    )
    return SweepResult(target_tier=target_tier, points=list(points))


def _run_level(
    target_tier: str,
    capacities: dict[str, CapacityModel],
    mix: WorkloadMix,
    level: int,
    topology: tuple[int, int, int],
    duration: float,
    warmup_fraction: float,
    dataset_scale: float,
    demand_scale: float,
    seed: int,
) -> SweepPoint:
    rng = RngRegistry(seed * 1_000_003 + level)
    sim = Simulator()
    # Pools: the target tier's admission is capped at the level; the
    # others are wide open so they never queue.
    ample = 100_000
    soft = SoftResourceAllocation(
        web_threads=ample,
        app_threads=level if target_tier == APP else ample,
        db_connections=level if target_tier == DB else ample,
    )
    app = NTierApplication(sim, soft)
    counts = dict(zip((WEB, APP, DB), topology))
    for tier, count in counts.items():
        for i in range(count):
            server = Server(
                sim,
                ServerConfig(
                    name=f"{tier}-{i + 1}",
                    tier=tier,
                    capacity=capacities[tier],
                    thread_limit=soft.for_tier(tier) if tier != DB else ample,
                ),
            )
            app.attach_server(server)
    factory = RequestFactory(
        mix, rng.stream("demand"), dataset_scale=dataset_scale,
        demand_scale=demand_scale,
    )
    # The client population must keep the target's admission cap
    # saturated, so the cap — not the client count — pins the target
    # server's concurrency at exactly `level` (the paper stresses the
    # target with dedicated client threads for the same reason). The
    # factor covers the time requests spend cycling through the other
    # tiers between visits to the target.
    users = level * 4 + 30
    generator = ClosedLoopGenerator(
        sim, app, users, factory, rng.stream("users"), think_time=0.0
    )

    target_servers = app.tiers[target_tier].servers
    warmup = duration * warmup_fraction

    generator.start()
    sim.run(until=warmup)
    # Steady-state measurement: difference the target servers' monotone
    # accumulators over the measurement window.
    for s in target_servers:
        s.sync_monitors()
    comp0 = sum(s.completions for s in target_servers)
    lat0 = sum(s.latency_total for s in target_servers)
    conc0 = sum(s.concurrency_integral for s in target_servers)
    crit = capacities[target_tier].critical_resource.name
    util0 = sum(s.util_integral[crit] for s in target_servers)
    sim.run(until=duration)
    for s in target_servers:
        s.sync_monitors()
    window = duration - warmup
    completions = sum(s.completions for s in target_servers) - comp0
    latency = sum(s.latency_total for s in target_servers) - lat0
    measured_conc = (
        sum(s.concurrency_integral for s in target_servers) - conc0
    ) / window
    util = (sum(s.util_integral[crit] for s in target_servers) - util0) / (
        window * len(target_servers)
    )
    if completions <= 0:
        raise ExperimentError(
            f"sweep level {level}: no completions in the measurement window"
        )
    return SweepPoint(
        concurrency=level,
        measured_concurrency=measured_conc,
        throughput=completions / window,
        response_time=latency / completions,
        utilization=float(np.clip(util, 0.0, 1.0)),
    )


def cap_ramp_scatter(
    db_capacity: CapacityModel,
    mix: WorkloadMix,
    q_max: int = 80,
    q_step: int = 2,
    dwell: float = 3.0,
    fine_interval: float = 0.050,
    seed: int = 7,
    dataset_scale: float = 1.0,
):
    """One continuous run whose DB connection cap ramps from ``q_step``
    to ``q_max``, with fine-grained monitoring of the DB server.

    This is the live-scatter variant of the Fig. 3 methodology: a
    saturated closed-loop population keeps the cap pinned while the cap
    sweeps the concurrency range, so the 50 ms interval monitor records
    the full three-stage curve in one run. Returns ``(samples,
    server_name)`` where ``samples`` is the monitor's
    :class:`~repro.monitoring.interval.IntervalWindow`.

    Used by the Fig. 6 harness and the SCT ablation benches.
    """
    from repro.experiments.calibration import ample_capacity
    from repro.monitoring.interval import IntervalMonitor

    if q_max < q_step or q_step < 1:
        raise ExperimentError(f"need 1 <= q_step <= q_max, got {q_step}/{q_max}")
    rng = RngRegistry(seed)
    sim = Simulator()
    ample = 100_000
    soft = SoftResourceAllocation(
        web_threads=ample, app_threads=ample, db_connections=q_step
    )
    app = NTierApplication(sim, soft)
    db_server = Server(sim, ServerConfig("db-1", DB, db_capacity, ample))
    app.attach_server(Server(sim, ServerConfig("web-1", WEB, ample_capacity(), ample)))
    app.attach_server(Server(sim, ServerConfig("app-1", APP, ample_capacity(), ample)))
    app.attach_server(db_server)
    monitor = IntervalMonitor(sim, db_server, interval=fine_interval)
    factory = RequestFactory(
        mix, rng.stream("demand"), dataset_scale=dataset_scale
    )
    generator = ClosedLoopGenerator(
        sim, app, q_max * 4 + 30, factory, rng.stream("users"), think_time=0.0
    )
    levels = list(range(q_step, q_max + 1, q_step))
    pool = app.conn_pools["app-1"]
    for i, level in enumerate(levels):
        sim.schedule(i * dwell, pool.resize, level)
    generator.start()
    sim.run(until=len(levels) * dwell)
    return monitor.samples, db_server.name
