"""Actuators: apply hardware and soft-resource decisions (Fig. 8, step 4-6).

The actuator is the only component that touches the hypervisor, the
application topology and the pools. Controllers express *what* should
happen (scale tier X out; set app threads to N); the actuator handles
the mechanics and timing:

* **scale-out** — launch a VM, wait out the preparation period, stamp a
  server from the factory, attach it to its tier and to the metric
  warehouse;
* **scale-in** — drain the newest server ("slow turn-off"), poll until
  its in-flight requests finish, then retire it and stop the VM;
* **soft-resource reallocation** — resize the thread pools of every
  live server of a tier (and the per-app-server DB connection pools),
  and update the defaults used for servers added later.

The actuator reports to no one directly: every action it starts or
completes is a :class:`~repro.control.events.DecisionEvent` on the
run's :class:`~repro.control.bus.ControlBus`. The trace records them
there, and controllers hear completed hardware changes
(``bootstrap_ready``, ``scale_out_ready``, ``scale_up_done``,
``scale_in_done``, ``server_ejected``) through their own subscription.
"""

from __future__ import annotations

from repro.cloud.hypervisor import Hypervisor
from repro.cloud.vm import VM
from repro.control.bus import ControlBus
from repro.control.events import DecisionEvent
from repro.errors import FaultError, ScalingError
from repro.monitoring.warehouse import MetricWarehouse
from repro.ntier.app import APP, WEB, NTierApplication
from repro.ntier.request import Request
from repro.ntier.server import Server
from repro.scaling.factory import ServerFactory
from repro.sim.engine import Simulator
from repro.sim.event import EventHandle

__all__ = ["Actuator"]

_DRAIN_POLL = 0.5
# Exponential backoff for failed provisioning: base * 2^(attempt-1),
# capped, so a provisioning-fault window is survived without either
# wedging ``action_in_flight`` or hammering the hypervisor.
_RETRY_BASE = 2.0
_RETRY_CAP = 30.0


class Actuator:
    """Executes scaling actions against the simulated cloud and app,
    and publishes each one on ``bus``."""

    #: The ``source`` of every event the actuator publishes.
    source = "actuator"

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        hypervisor: Hypervisor,
        factory: ServerFactory,
        warehouse: MetricWarehouse,
        bus: ControlBus,
    ) -> None:
        self.sim = sim
        self.app = app
        self.hypervisor = hypervisor
        self.factory = factory
        self.warehouse = warehouse
        self.bus = bus
        self._vm_by_server: dict[str, VM] = {}
        self._db_connections = app.soft.db_connections
        self._draining: dict[str, int] = {}  # tier -> count
        self._drain_polls: dict[str, EventHandle] = {}  # server -> poll
        self._pending_retries: dict[str, int] = {}  # tier -> scheduled retries
        self._retry_attempts: dict[str, int] = {}  # tier -> consecutive failures
        self._retry_handles: dict[str, list[EventHandle]] = {}  # tier -> polls
        self._bootstrap_vms: set[str] = set()

    # ------------------------------------------------------------------
    # event emission
    # ------------------------------------------------------------------
    def _emit(
        self,
        kind: str,
        tier: str,
        value: int | None = None,
        detail: str = "",
        reason: str = "",
        estimate: float | None = None,
    ) -> None:
        self.bus.publish(
            DecisionEvent(
                time=self.sim.now, kind=kind, tier=tier, value=value,
                detail=detail, source=self.source, reason=reason,
                estimate=estimate,
            )
        )

    # ------------------------------------------------------------------
    # bootstrap & hardware scaling
    # ------------------------------------------------------------------
    def bootstrap(self, tier: str, count: int = 1) -> None:
        """Provision the initial topology with no preparation delay.

        Bootstrap attachments are logged as ``bootstrap_ready`` (not
        ``scale_out_ready``) so figure code and controllers can tell
        the initial topology apart from runtime scaling events.
        """
        for _ in range(count):
            vm = self.hypervisor.launch(
                tier, self._vm_ready, prep_period=0.0, on_failed=self._vm_failed
            )
            self._bootstrap_vms.add(vm.name)

    def scale_out(self, tier: str, reason: str = "") -> None:
        """Launch one more VM for a tier (takes the prep period)."""
        vm = self.hypervisor.launch(tier, self._vm_ready, on_failed=self._vm_failed)
        self._emit("scale_out_started", tier, detail=vm.name, reason=reason)

    def _vm_failed(self, vm: VM) -> None:
        """A launch died while provisioning: retry with backoff.

        Without this path a provisioning fault would leave the tier
        under-provisioned forever once the threshold policy's trip has
        been consumed — the retry keeps the intent alive, and the
        growing delay keeps a long fault window from turning into a
        launch storm.
        """
        tier = vm.tier
        attempt = self._retry_attempts.get(tier, 0) + 1
        self._retry_attempts[tier] = attempt
        backoff = min(_RETRY_CAP, _RETRY_BASE * (2.0 ** (attempt - 1)))
        self._pending_retries[tier] = self._pending_retries.get(tier, 0) + 1
        self._emit(
            "scale_out_failed", tier, value=attempt, detail=vm.name,
            reason=f"provisioning failed; retry {attempt} in {backoff:.1f}s",
        )
        handle = self.sim.schedule_after(backoff, self._retry_scale_out, tier)
        self._retry_handles.setdefault(tier, []).append(handle)

    def expedite_retries(self, tier: str) -> int:
        """Pull a tier's pending provisioning retries forward to *now*.

        Recovery-aware controllers call this when a provisioning fault
        clears: the exponential backoff that protected the hypervisor
        during the fault window would otherwise keep the tier
        under-provisioned for up to ``_RETRY_CAP`` seconds after the
        hypervisor has already healed. Resets the backoff counter and
        returns the number of retries rescheduled.
        """
        handles = self._retry_handles.get(tier, [])
        moved = 0
        fresh: list[EventHandle] = []
        for handle in handles:
            if handle.done or handle.cancelled:
                continue
            fresh.append(self.sim.reschedule(handle, self.sim.now))
            moved += 1
        self._retry_handles[tier] = fresh
        if moved:
            self._retry_attempts.pop(tier, None)
        return moved

    def _retry_scale_out(self, tier: str) -> None:
        self._pending_retries[tier] = self._pending_retries.get(tier, 1) - 1
        vm = self.hypervisor.launch(tier, self._vm_ready, on_failed=self._vm_failed)
        self._emit(
            "scale_out_retry", tier,
            value=self._retry_attempts.get(tier, 0), detail=vm.name,
            reason="relaunch after provisioning failure",
        )

    def _vm_ready(self, vm: VM) -> None:
        self._retry_attempts.pop(vm.tier, None)
        server = self.factory.create(vm.tier)
        vm.server_name = server.name
        self._vm_by_server[server.name] = vm
        db_conn = self._db_connections if vm.tier == APP else None
        self.app.attach_server(server, db_connections=db_conn)
        self.warehouse.register_server(server)
        kind = (
            "bootstrap_ready" if vm.name in self._bootstrap_vms else "scale_out_ready"
        )
        self._emit(kind, vm.tier, detail=server.name)

    def scale_up(
        self, tier: str, factor: float = 2.0, max_vcpus: float = 8.0
    ) -> bool:
        """Vertically scale one server of a tier (add CPU cores).

        Picks the live server with the fewest vCPUs, multiplies its
        cores by ``factor`` (capped at ``max_vcpus``), and swaps in the
        correspondingly scaled capacity model after the hypervisor's
        reconfiguration delay. Returns False when every server is
        already at the cap (the controller should scale out instead).

        Note the paper's Fig. 7(a)/(d) consequence: vertical scaling
        *changes the server's optimal concurrency* (Q_lower doubles
        with the cores), which is exactly why hardware-only and
        statically-profiled frameworks go stale after a scale-up.
        """
        if factor <= 1.0:
            raise ScalingError(f"scale_up factor must be > 1, got {factor!r}")
        candidates = [
            (self._vm_by_server[s.name], s)
            for s in self.app.tiers[tier].servers
            if s.name in self._vm_by_server
            and self._vm_by_server[s.name].vcpus < max_vcpus
        ]
        if not candidates:
            return False
        vm, server = min(candidates, key=lambda pair: pair[0].vcpus)
        new_vcpus = min(max_vcpus, vm.vcpus * factor)
        ratio = new_vcpus / vm.vcpus
        self._emit(
            "scale_up_started", tier, value=int(new_vcpus), detail=server.name,
        )

        def _apply(_vm: VM) -> None:
            if server.name not in self._vm_by_server:
                # The server was drained and retired while the resize
                # was in flight; nothing is left to reconfigure.
                return
            critical = server.capacity.critical_resource.name
            scaled = server.capacity.scaled_cores(
                critical, server.capacity.resource(critical).units * ratio
            )
            server.set_capacity(scaled)
            # Scatter collected under the old core count describes the
            # old capacity curve; drop it so the SCT model re-learns
            # the new optimum quickly.
            self.warehouse.clear_fine_samples(server.name)
            self._emit(
                "scale_up_done", tier, value=int(new_vcpus), detail=server.name,
            )

        self.hypervisor.resize(vm, new_vcpus, _apply)
        return True

    def scale_in(self, tier: str, reason: str = "") -> None:
        """Drain the newest server of a tier and stop its VM once empty."""
        tier_obj = self.app.tiers[tier]
        server = tier_obj.begin_drain()
        vm = self._vm_by_server.get(server.name)
        if vm is None:
            raise FaultError(
                f"asked to drain {server.name!r} but no VM is recorded for "
                "it — the server no longer exists in the cloud substrate"
            )
        self.hypervisor.mark_draining(vm)
        self._draining[tier] = self._draining.get(tier, 0) + 1
        self._emit("scale_in_started", tier, detail=server.name, reason=reason)
        self._drain_polls[server.name] = self.sim.schedule_after(
            _DRAIN_POLL, self._check_drained, tier, server, vm
        )

    def _check_drained(self, tier: str, server: Server, vm: VM) -> None:
        if server.name not in self._vm_by_server:
            # A crash cancels the drain poll, so reaching this state
            # means the server vanished behind the actuator's back.
            self._drain_polls.pop(server.name, None)
            raise FaultError(
                f"drain poll for {server.name!r} but the server no longer "
                "exists — it was removed without the actuator noticing"
            )
        if not server.is_idle:
            self._drain_polls[server.name] = self.sim.schedule_after(
                _DRAIN_POLL, self._check_drained, tier, server, vm
            )
            return
        self._drain_polls.pop(server.name, None)
        self.app.tiers[tier].collect_drained()
        self.warehouse.deregister_server(server.name)
        if tier == APP:
            self.app.detach_conn_pool(server.name)
        self.hypervisor.stop(vm)
        del self._vm_by_server[server.name]
        self._draining[tier] = self._draining.get(tier, 1) - 1
        self._emit("scale_in_done", tier, detail=server.name,
                   reason="drain complete")

    # ------------------------------------------------------------------
    # crash handling (fault injection)
    # ------------------------------------------------------------------
    def crash_server(self, server_name: str) -> list[Request]:
        """Kill a server abruptly: eject, fail its requests, stop the VM.

        The balancer stops seeing the replica first, then every request
        it held is failed and unwound, monitoring is detached, and the
        VM goes straight to STOPPED (no drain). A crash on a draining
        server cancels its drain poll; crashing the last live replica
        of a tier is refused (the tier would be unroutable).
        Returns the failed requests.
        """
        server = tier_name = tier_obj = None
        was_draining = False
        for name, t in self.app.tiers.items():
            for s in t.servers:
                if s.name == server_name:
                    server, tier_name, tier_obj = s, name, t
            for s in t.draining:
                if s.name == server_name:
                    server, tier_name, tier_obj = s, name, t
                    was_draining = True
        if server is None:
            raise FaultError(
                f"cannot crash {server_name!r}: no such live or draining server"
            )
        if not was_draining and tier_obj.size == 1:
            raise FaultError(
                f"cannot crash {server_name!r}: it is the last live "
                f"{tier_name} replica and the tier would be unroutable"
            )
        vm = self._vm_by_server.get(server_name)
        if vm is None:
            raise FaultError(f"cannot crash {server_name!r}: no VM recorded")
        tier_obj.eject(server)
        if was_draining:
            handle = self._drain_polls.pop(server_name, None)
            if handle is not None:
                handle.cancel()
            self._draining[tier_name] = self._draining.get(tier_name, 1) - 1
        victims = self.app.crash_server(server)
        self.warehouse.deregister_server(server_name)
        if tier_name == APP:
            self.app.detach_conn_pool(server_name)
        del self._vm_by_server[server_name]
        self.hypervisor.stop(vm)
        self._emit(
            "server_ejected", tier_name, value=len(victims), detail=server_name,
            reason=f"crash: {len(victims)} in-flight request(s) failed",
        )
        return victims

    # ------------------------------------------------------------------
    # soft-resource reallocation
    # ------------------------------------------------------------------
    def set_web_threads(
        self, limit: int, reason: str = "", estimate: float | None = None
    ) -> None:
        """Resize every web server's thread pool."""
        self._resize_tier_threads(WEB, limit, "soft_web_threads", reason, estimate)

    def set_app_threads(
        self, limit: int, reason: str = "", estimate: float | None = None
    ) -> None:
        """Resize every app server's thread pool (Tomcat via JMX)."""
        self._resize_tier_threads(APP, limit, "soft_app_threads", reason, estimate)

    def set_app_threads_for(
        self,
        server_name: str,
        limit: int,
        reason: str = "",
        estimate: float | None = None,
    ) -> None:
        """Resize one app server's thread pool (heterogeneous fleets).

        After a vertical scale-up part of a tier may have more cores
        than the rest; per-server actuation lets ConScale give each
        instance its own optimal concurrency. The factory template (the
        default for *future* servers) is not changed.
        """
        if limit < 1:
            raise ScalingError(f"thread limit must be >= 1, got {limit!r}")
        for server in self.app.tiers[APP].all_instances():
            if server.name == server_name:
                if server.threads.limit != limit:
                    server.threads.resize(limit)
                    self._emit(
                        "soft_app_threads", APP, value=limit,
                        detail=server_name, reason=reason, estimate=estimate,
                    )
                return
        raise ScalingError(f"no app server named {server_name!r}")

    def set_db_connections(
        self, limit: int, reason: str = "", estimate: float | None = None
    ) -> None:
        """Resize the DB connection pool in every app server.

        This is the extended-JMX path of the paper (Tomcat does not
        expose the conn pool natively); it caps the concurrency flowing
        into the DB tier at ``limit * n_app_servers``.
        """
        if limit < 1:
            raise ScalingError(f"db_connections must be >= 1, got {limit!r}")
        if limit == self._db_connections and all(
            p.limit == limit for p in self.app.conn_pools.values()
        ):
            return
        self._db_connections = int(limit)
        for pool in self.app.conn_pools.values():
            pool.resize(limit)
        self._emit("soft_db_connections", APP, value=limit, reason=reason,
                   estimate=estimate)

    def _resize_tier_threads(
        self,
        tier: str,
        limit: int,
        kind: str,
        reason: str = "",
        estimate: float | None = None,
    ) -> None:
        if limit < 1:
            raise ScalingError(f"thread limit must be >= 1, got {limit!r}")
        servers = self.app.tiers[tier].all_instances()
        if self.factory.thread_limit(tier) == limit and all(
            s.threads.limit == limit for s in servers
        ):
            return
        for server in servers:
            server.threads.resize(limit)
        self.factory.set_thread_limit(tier, limit)
        self._emit(kind, tier, value=limit, reason=reason, estimate=estimate)

    # ------------------------------------------------------------------
    # state queries for the policy
    # ------------------------------------------------------------------
    @property
    def db_connections(self) -> int:
        """Current per-app-server DB connection pool limit."""
        return self._db_connections

    def action_in_flight(self, tier: str) -> bool:
        """True while a scale-out is provisioning (or awaiting a retry
        after a provisioning failure) or a scale-in is draining."""
        return (
            self.hypervisor.provisioning_count(tier) > 0
            or self._pending_retries.get(tier, 0) > 0
            or self._draining.get(tier, 0) > 0
        )
