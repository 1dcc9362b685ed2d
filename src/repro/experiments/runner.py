"""Wire a full evaluation scenario and run it.

``run_experiment("conscale", config)`` builds the whole stack — cloud,
application, workload, monitoring, controller — runs the trace, and
returns a :class:`~repro.experiments.artifact.RunArtifact` with
latencies already converted back to base-scale seconds (see
:class:`~repro.experiments.scenarios.ScenarioConfig` for the
load-scaling contract).

The spec-addressed entry point is :func:`execute_spec`; it is a
module-level function so the experiment engine can ship specs to
worker processes. ``run_experiment`` is the convenience wrapper that
builds the spec for you.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.series import group_mean_by_time
from repro.errors import ConfigurationError
from repro.experiments.artifact import (
    DRAIN_GRACE,
    FineSeries,
    RunArtifact,
    RunOverrides,
    RunSpec,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.faults.injector import FaultInjector
from repro.faults.summary import ResilienceSummary, build_resilience_summary
from repro.cloud.hypervisor import Hypervisor
from repro.control.bus import ControlBus
from repro.control.trace import DecisionTrace
from repro.monitoring.records import RequestLog
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, DB, WEB, NTierApplication
from repro.rng import RngRegistry
from repro.scaling.actuator import Actuator
from repro.scaling.controller import BaseController
from repro.scaling.estimator import OptimalConcurrencyEstimator, TierEstimate
from repro.scaling.factory import ServerFactory
from repro.scaling.policy import TierPolicyConfig
from repro.scaling.registry import ControllerContext, get_controller
from repro.sim.engine import PRIORITY_SAMPLER, Simulator
from repro.sim.fluid import FluidStepper
from repro.sim.governor import ModeGovernor
from repro.workload.generator import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
    RequestFactory,
)
from repro.workload.mixes import WorkloadMix, browse_only_mix, read_write_mix
from repro.workload.shapes import make_trace
from repro.workload.trace import Trace

__all__ = [
    "run_experiment",
    "execute_spec",
]


def _build_mix(config: ScenarioConfig) -> WorkloadMix:
    base = config.calibration.base_demands
    dist = config.demand_distribution
    if config.workload_mode == "browse":
        return browse_only_mix(base, distribution=dist)
    return read_write_mix(base, distribution=dist)


def run_experiment(
    framework: str,
    config: ScenarioConfig,
    *,
    policy_overrides: dict[str, TierPolicyConfig] | None = None,
    faults=None,
    params: dict[str, object] | None = None,
) -> RunArtifact:
    """Run one scenario under one scaling framework.

    ``params`` sets controller parameters per the framework's registered
    schema (e.g. ``{"headroom": 1.3}`` for ConScale, ``{"profile": ...}``
    for DCM).
    """
    overrides = RunOverrides.from_params(
        params or None,
        policy_overrides=(
            tuple(sorted(policy_overrides.items()))
            if policy_overrides is not None
            else None
        ),
    )
    return execute_spec(RunSpec(framework, config, overrides, faults))


def execute_spec(spec: RunSpec, *, sim: Simulator | None = None) -> RunArtifact:
    """Execute one :class:`RunSpec` and package its artifact.

    This is the engine's unit of work: self-contained (fresh simulator
    and RNG registry per call), deterministic for a given spec digest,
    and safe to run in a worker process.

    ``sim`` lets a caller supply a pre-configured simulator — the
    tie-order race detector passes ``Simulator(tie_order="reverse")``
    and reads the batch statistics back off it afterwards. The
    simulator must be fresh (clock at 0, empty calendar).
    """
    framework, config = spec.framework, spec.config
    # Unknown frameworks fail here with the registered names listed
    # (specs built elsewhere may predate an unregistration).
    ctrl_spec = get_controller(framework)
    if sim is None:
        sim = Simulator()
    elif sim.now != 0.0 or sim.pending_events or sim.events_executed:
        raise ConfigurationError(
            "execute_spec needs a fresh simulator (clock at 0, empty calendar)"
        )
    rng = RngRegistry(config.seed)
    cal = config.calibration

    # --- application & cloud -------------------------------------------
    app = NTierApplication(sim, config.soft, balancing=config.balancing)
    factory = ServerFactory(sim)
    for tier in (WEB, APP, DB):
        factory.set_template(tier, cal.capacity(tier), config.soft.for_tier(tier))
    hypervisor = Hypervisor(sim, prep_period=config.prep_period)
    # One control bus per run: every controller/actuator decision flows
    # through it, and the trace that ends up in the artifact is simply a
    # bus subscriber.
    bus = ControlBus()
    warehouse = MetricWarehouse(
        sim,
        tick=1.0,
        fine_interval=config.effective_fine_interval(),
        history_seconds=config.duration + DRAIN_GRACE + 60.0,
    )
    actions = DecisionTrace()
    actuator = Actuator(sim, app, hypervisor, factory, warehouse, actions, bus)
    n_web, n_app, n_db = config.topology
    actuator.bootstrap(WEB, n_web)
    actuator.bootstrap(APP, n_app)
    actuator.bootstrap(DB, n_db)

    # --- workload -------------------------------------------------------
    mix = _build_mix(config)
    if config.trace_name.endswith(".csv"):
        # Replay a user-provided trace file (t_s,users columns); the
        # population is divided by the load scale like the built-ins.
        trace = Trace.from_csv(config.trace_name).scaled(
            user_factor=1.0 / config.load_scale
        )
        if trace.duration > config.duration:
            trace = trace.truncated(config.duration)
    else:
        trace = make_trace(config.trace_name, config.scaled_users, config.duration)
    req_factory = RequestFactory(
        mix,
        rng.stream("demand"),
        dataset_scale=cal.dataset_scale,
        demand_scale=config.demand_scale,
    )
    generator: OpenLoopGenerator | ClosedLoopGenerator
    if config.arrivals == "closed":
        # A synchronous user population sized from the scaled trace peak
        # (think-time loop), the Fig. 3/7 closed-system mode.
        generator = ClosedLoopGenerator(
            sim,
            app,
            max(1, int(round(config.scaled_users))),
            req_factory,
            rng.stream("arrivals"),
            cal.think_time,
        )
    else:
        generator = OpenLoopGenerator(
            sim, app, trace, req_factory, rng.stream("arrivals"), cal.think_time
        )

    # --- simulation mode --------------------------------------------------
    # Fluid and hybrid runs add a FluidStepper over the same calibration.
    # Hybrid adds a ModeGovernor that switches between the generator and
    # the stepper; it is told the trace and the fault plan so it stays
    # discrete through bursts and fault windows.
    stepper: FluidStepper | None = None
    governor: ModeGovernor | None = None
    if config.mode != "discrete":
        closed = config.arrivals == "closed"
        stepper = FluidStepper(
            sim,
            app,
            mix,
            rng.stream("fluid"),
            think_time=cal.think_time,
            arrivals=config.arrivals,
            trace=None if closed else trace,
            population=max(1, int(round(config.scaled_users))) if closed else None,
            dataset_scale=cal.dataset_scale,
            demand_scale=config.demand_scale,
        )
        if config.mode == "hybrid":
            assert isinstance(generator, OpenLoopGenerator)  # enforced by config
            governor = ModeGovernor(
                sim,
                app,
                generator,
                stepper,
                req_factory,
                bus,
                trace=trace,
                faults=spec.faults,
            )

    # --- controller -----------------------------------------------------
    tier_configs = spec.overrides.policy_dict() or {
        APP: config.policy, DB: config.policy
    }
    # Registry-driven construction: the framework's registered factory
    # receives the full run context plus the resolved parameter dict
    # (schema defaults overlaid with the spec's controller_params).
    controller: BaseController = ctrl_spec.build(
        ControllerContext(
            sim=sim,
            warehouse=warehouse,
            actuator=actuator,
            config=config,
            tier_configs=tier_configs,
            params=ctrl_spec.resolve(spec.overrides.params_dict()),
        )
    )
    # Any controller exposing an online estimator gets its history
    # collected into the artifact — a protocol, not framework dispatch.
    estimator = (
        controller.estimator
        if isinstance(controller.estimator, OptimalConcurrencyEstimator)
        else None
    )

    # --- fault injection --------------------------------------------------
    injector: FaultInjector | None = None
    if spec.faults is not None:
        injector = FaultInjector(
            sim, app, actuator, hypervisor, warehouse, generator, bus
        )
        injector.schedule(spec.faults)

    # --- result sampling --------------------------------------------------
    log = RequestLog()
    app.on_complete(log.record)
    vm_times: list[float] = []
    vm_counts: list[int] = []
    vm_by_tier: dict[str, list[int]] = {APP: [], DB: []}

    def _sample_vms(now: float) -> None:
        vm_times.append(now)
        vm_counts.append(hypervisor.billable_count())
        for tier in (APP, DB):
            vm_by_tier[tier].append(hypervisor.billable_count(tier))

    # Samples at PRIORITY_SAMPLER: a launch that completes at exactly a
    # sample instant is always counted in that sample, regardless of
    # which concurrent event the scheduler happened to pop first.
    vm_sampler = warehouse.register_sampler(_sample_vms, priority=PRIORITY_SAMPLER)

    # --- run --------------------------------------------------------------
    # Pinned fluid never starts the generator, so it issues nothing and
    # its counters stay zero; stop() on it only sets a flag.
    if stepper is not None and governor is None:
        stepper.start()
    else:
        generator.start()
        if governor is not None:
            governor.start()
    sim.run(until=config.duration)
    generator.stop()
    if governor is not None:
        governor.finish()
    elif stepper is not None:
        stepper.hand_back(req_factory)
    controller.stop()
    sim.run(until=config.duration + DRAIN_GRACE)
    vm_sampler.stop()

    # --- package: extract plain-array series, drop live handles ----------
    window = config.duration + DRAIN_GRACE + 60.0
    cpu_series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for tier in (APP, DB):
        samples = warehouse.samples(window=window, tier=tier)
        cpu_series[tier] = group_mean_by_time(
            [s.t_end for s in samples], [s.cpu for s in samples]
        )

    fine_series: dict[str, FineSeries] = {}
    for name, (tier, samples) in sorted(warehouse.all_fine_samples(window).items()):
        fine_series[name] = FineSeries(
            server=name,
            tier=tier,
            t_end=np.array([s.t_end for s in samples]),
            concurrency=np.array([s.concurrency for s in samples]),
            throughput=np.array([s.throughput for s in samples]),
            response_time=np.array([s.response_time for s in samples]),
            completions=np.array([s.completions for s in samples], dtype=int),
        )

    estimates: dict[str, list[TierEstimate]] = {}
    if estimator is not None:
        estimates = {APP: estimator.history(APP), DB: estimator.history(DB)}

    latencies = log.response_times / config.rt_scale
    resilience: ResilienceSummary | None = None
    if injector is not None:
        resilience = build_resilience_summary(
            injector.episodes,
            failed=app.failed,
            retried=generator.retried,
            timeouts=generator.timeouts,
            abandoned=generator.abandoned,
            latencies=latencies,
            completion_times=log.completion_times,
            horizon=config.duration + DRAIN_GRACE,
            storyline=spec.faults.storyline,
            trace=actions,
        )

    return RunArtifact(
        spec=spec,
        latencies=latencies,
        completion_times=log.completion_times,
        arrival_times=log.arrival_times,
        interactions=np.array(log.interactions, dtype=str),
        generated=generator.generated + (stepper.generated if stepper else 0),
        completed=len(log),
        actions=actions,
        vm_times=np.asarray(vm_times),
        vm_counts=np.asarray(vm_counts),
        vm_counts_by_tier={t: np.asarray(v) for t, v in sorted(vm_by_tier.items())},
        cpu_series=cpu_series,
        estimates=estimates,
        fine_series=fine_series,
        failed=app.failed,
        retried=generator.retried,
        resilience=resilience,
    )
