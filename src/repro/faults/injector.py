"""Schedules a :class:`~repro.faults.plan.FaultPlan` on a live run.

The injector is pure plumbing: it translates each declarative spec
into scheduled activation/recovery callbacks against the components
that implement the fault semantics (server capacity swap, actuator
crash path, hypervisor launch interceptor, warehouse blackout,
generator client deadline), and publishes every transition as a
``fault_injected``/``fault_recovered`` :class:`DecisionEvent` on the
control bus — so faults appear in the recorded
:class:`~repro.control.trace.DecisionTrace` next to the controller
decisions they provoked, and ``repro diff`` against the fault-free
twin shows exactly where the timelines fork.

The injector draws no randomness: given the same plan and seed, fault
activations land on the same servers at the same instants, keeping
faulted runs byte-reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.control.bus import ControlBus
from repro.control.events import DecisionEvent
from repro.errors import ConfigurationError, FaultError
from repro.faults.plan import (
    ClientTimeoutSpec,
    FaultPlan,
    FaultSpec,
    ProvisioningFaultSpec,
    ServerCrashSpec,
    SlowNodeSpec,
    TelemetryDropoutSpec,
)
from repro.faults.summary import FaultEpisode
from repro.ntier.server import Server

if TYPE_CHECKING:
    from repro.cloud.hypervisor import Hypervisor
    from repro.monitoring.warehouse import MetricWarehouse
    from repro.ntier.app import NTierApplication
    from repro.scaling.actuator import Actuator
    from repro.sim.engine import Simulator
    from repro.workload.generator import ClosedLoopGenerator, OpenLoopGenerator

__all__ = ["FaultInjector", "apply_slowdown", "remove_slowdown"]


def apply_slowdown(server: Server, slowdown: float) -> None:
    """Divide the server's critical-resource units by ``slowdown``.

    Multiplicative on the *current* capacity, so overlapping episodes
    and concurrent ``scale_up`` capacity swaps compose in any order —
    restoring is simply the inverse multiplication, no captured
    original to clobber.
    """
    critical = server.capacity.critical_resource.name
    units = server.capacity.resource(critical).units
    server.set_capacity(server.capacity.scaled_cores(critical, units / slowdown))


def remove_slowdown(server: Server, slowdown: float) -> None:
    """Undo :func:`apply_slowdown` on the server's current capacity."""
    critical = server.capacity.critical_resource.name
    units = server.capacity.resource(critical).units
    server.set_capacity(server.capacity.scaled_cores(critical, units * slowdown))


def _natural(server: Server) -> tuple[int, str]:
    # "app-2" < "app-10": length-first sort keeps factory naming natural.
    return (len(server.name), server.name)


class FaultInjector:
    """Executes one fault plan against a running simulation."""

    source = "faults"

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        actuator: Actuator,
        hypervisor: Hypervisor,
        warehouse: MetricWarehouse,
        generator: OpenLoopGenerator | ClosedLoopGenerator | None,
        bus: ControlBus,
    ) -> None:
        self.sim = sim
        self.app = app
        self.actuator = actuator
        self.hypervisor = hypervisor
        self.warehouse = warehouse
        self.generator = generator
        self.bus = bus
        #: Every activation, recorded as it happened (summary input).
        self.episodes: list[FaultEpisode] = []
        # Slow-node targets are resolved at activation time (the live
        # set changes); recovery must restore the *same* server, keyed
        # by the spec's position in the plan (specs may repeat).
        self._slow_targets: dict[int, str] = {}
        # Provisioning windows currently open; the single hypervisor
        # interceptor consults them all, so windows may overlap.
        self._prov_active: dict[int, ProvisioningFaultSpec] = {}

    # ------------------------------------------------------------------
    def schedule(self, plan: FaultPlan) -> None:
        """Schedule every spec's activation (and recovery) callbacks."""
        if any(isinstance(s, ClientTimeoutSpec) for s in plan) and (
            self.generator is None
        ):
            raise ConfigurationError(
                "plan contains a client-timeout fault but no generator "
                "was provided to the injector"
            )
        if any(isinstance(s, ProvisioningFaultSpec) for s in plan):
            self.hypervisor.set_launch_interceptor(self._intercept_launch)
        for idx, spec in enumerate(plan):
            if isinstance(spec, SlowNodeSpec):
                self.sim.schedule(spec.at, self._slow_start, idx, spec)
                self.sim.schedule(spec.window[1], self._slow_end, idx, spec)
            elif isinstance(spec, ServerCrashSpec):
                self.sim.schedule(spec.at, self._crash, spec)
            elif isinstance(spec, ProvisioningFaultSpec):
                self.sim.schedule(spec.at, self._prov_start, idx, spec)
                self.sim.schedule(spec.window[1], self._prov_end, idx, spec)
            elif isinstance(spec, TelemetryDropoutSpec):
                self.sim.schedule(spec.at, self._dropout_start, spec)
                self.sim.schedule(spec.window[1], self._dropout_end, spec)
            elif isinstance(spec, ClientTimeoutSpec):
                self.sim.schedule(spec.at, self._timeout_start, spec)
                self.sim.schedule(spec.window[1], self._timeout_end, spec)

    # ------------------------------------------------------------------
    # slow node
    # ------------------------------------------------------------------
    def _slow_start(self, idx: int, spec: SlowNodeSpec) -> None:
        servers = sorted(self.app.tiers[spec.tier].servers, key=_natural)
        if not servers:
            raise FaultError(
                f"cannot degrade {spec.label}: tier has no live servers"
            )
        server = servers[spec.server_index % len(servers)]
        apply_slowdown(server, spec.slowdown)
        self._slow_targets[idx] = server.name
        self._record(spec, detail=server.name)
        self._emit(
            "fault_injected", spec.tier, detail=server.name,
            reason=f"{spec.label}: capacity /{spec.slowdown:g}",
        )

    def _slow_end(self, idx: int, spec: SlowNodeSpec) -> None:
        name = self._slow_targets.pop(idx)
        server = next(
            (
                s
                for s in self.app.tiers[spec.tier].all_instances()
                if s.name == name
            ),
            None,
        )
        if server is None:
            # Crashed or retired mid-episode; nothing left to restore.
            self._emit(
                "fault_recovered", spec.tier, detail=name,
                reason=f"{spec.label}: target gone before recovery",
            )
            return
        remove_slowdown(server, spec.slowdown)
        self._emit(
            "fault_recovered", spec.tier, detail=name,
            reason=f"{spec.label}: capacity restored",
        )

    # ------------------------------------------------------------------
    # server crash
    # ------------------------------------------------------------------
    def _crash(self, spec: ServerCrashSpec) -> None:
        servers = sorted(self.app.tiers[spec.tier].servers, key=_natural)
        if not servers:
            raise FaultError(
                f"cannot crash {spec.label}: tier has no live servers"
            )
        server = servers[spec.server_index % len(servers)]
        victims = self.actuator.crash_server(server.name)
        self._record(spec, detail=server.name, failed=len(victims))
        self._emit(
            "fault_injected", spec.tier, value=len(victims),
            detail=server.name,
            reason=f"{spec.label}: VM died, {len(victims)} request(s) failed",
        )

    # ------------------------------------------------------------------
    # provisioning failure / delay
    # ------------------------------------------------------------------
    def _intercept_launch(self, tier: str, delay: float) -> tuple[str, float]:
        for spec in self._prov_active.values():
            if spec.tier in ("*", tier):
                if spec.mode == "fail":
                    # The launch consumes its full prep period before
                    # surfacing the failure (a provisioning timeout).
                    return ("fail", delay)
                return ("ok", delay * spec.delay_factor)
        return ("ok", delay)

    def _prov_start(self, idx: int, spec: ProvisioningFaultSpec) -> None:
        self._prov_active[idx] = spec
        self._record(spec, detail=spec.mode)
        self._emit(
            "fault_injected", spec.tier, detail=spec.mode,
            reason=f"{spec.label}: launches will {spec.mode}",
        )

    def _prov_end(self, idx: int, spec: ProvisioningFaultSpec) -> None:
        del self._prov_active[idx]
        self._emit(
            "fault_recovered", spec.tier, detail=spec.mode,
            reason=f"{spec.label}: provisioning healthy again",
        )

    # ------------------------------------------------------------------
    # telemetry dropout
    # ------------------------------------------------------------------
    def _dropout_start(self, spec: TelemetryDropoutSpec) -> None:
        self.warehouse.begin_blackout(spec.tier)
        self._record(spec, detail=spec.tier)
        self._emit(
            "fault_injected", spec.tier, detail="blackout",
            reason=f"{spec.label}: warehouse windows going missing",
        )

    def _dropout_end(self, spec: TelemetryDropoutSpec) -> None:
        self.warehouse.end_blackout(spec.tier)
        self._emit(
            "fault_recovered", spec.tier, detail="blackout",
            reason=f"{spec.label}: telemetry feed restored",
        )

    # ------------------------------------------------------------------
    # client timeout + retry
    # ------------------------------------------------------------------
    def _timeout_start(self, spec: ClientTimeoutSpec) -> None:
        assert self.generator is not None  # guarded in schedule()
        self.generator.set_client_timeout(spec.deadline, spec.max_retries)
        self._record(spec, detail=f"deadline={spec.deadline:g}")
        self._emit(
            "fault_injected", "-", detail=f"deadline={spec.deadline:g}",
            reason=f"{spec.label}: clients now impatient",
        )

    def _timeout_end(self, spec: ClientTimeoutSpec) -> None:
        assert self.generator is not None  # guarded in schedule()
        self.generator.clear_client_timeout()
        self._emit(
            "fault_recovered", "-", detail="deadline cleared",
            reason=f"{spec.label}: clients patient again",
        )

    # ------------------------------------------------------------------
    def _record(self, spec: FaultSpec, detail: str, failed: int = 0) -> None:
        start, end = spec.window
        self.episodes.append(
            FaultEpisode(
                kind=spec.kind,
                tier=getattr(spec, "tier", "-"),
                detail=detail,
                start=start,
                end=end,
                failed=failed,
            )
        )

    def _emit(
        self,
        kind: str,
        tier: str,
        value: int | None = None,
        detail: str = "",
        reason: str = "",
    ) -> None:
        self.bus.publish(
            DecisionEvent(
                time=self.sim.now,
                kind=kind,
                tier=tier,
                value=value,
                detail=detail,
                source=self.source,
                reason=reason,
            )
        )
