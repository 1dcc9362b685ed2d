"""The 3-tier application: request flow and soft-resource wiring.

The flow reproduces the thread-based synchronous RPC structure of
RUBBoS (client → Apache → Tomcat → MySQL):

* a request holds its **web-tier thread** for its entire lifetime;
* it holds its **app-tier thread** across the whole DB call (the thread
  is *admitted but inactive* while MySQL works, so it still contributes
  to Tomcat's multithreading overhead);
* the app server's **DB connection pool** caps how many of its requests
  may be inside the DB tier at once.

This coupling is the paper's core mechanism: adding a Tomcat VM doubles
the concurrency cap flowing into MySQL, so hardware-only scaling pushes
MySQL past its rational concurrency range and throughput collapses
(Fig. 10) unless the soft resources are re-adapted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.ntier.pools import FifoPool
from repro.ntier.request import Request
from repro.ntier.server import Server
from repro.ntier.tier import Tier
from repro.sim.engine import Simulator

__all__ = [
    "NTierApplication",
    "SoftResourceAllocation",
    "WEB",
    "APP",
    "DB",
]

WEB = "web"
APP = "app"
DB = "db"

# Fraction of the app-tier demand executed before the DB call; the rest
# runs after the reply (result rendering).
_APP_PRE_FRACTION = 0.6


@dataclass(slots=True)
class SoftResourceAllocation:
    """The paper's ``#Wthreads-#Athreads-#DBconnections`` triple.

    ``db_connections`` is per app server, as in Tomcat's connection
    pool; the concurrency cap on the whole DB tier is therefore
    ``db_connections * n_app_servers``.
    """

    web_threads: int = 1000
    app_threads: int = 60
    db_connections: int = 40

    def __post_init__(self) -> None:
        for field_name in ("web_threads", "app_threads", "db_connections"):
            value = getattr(self, field_name)
            if value < 1:
                raise ConfigurationError(f"{field_name} must be >= 1, got {value!r}")

    def for_tier(self, tier: str) -> int:
        """Thread limit for servers of ``tier``."""
        if tier == WEB:
            return self.web_threads
        if tier == APP:
            return self.app_threads
        if tier == DB:
            # MySQL's max_connections is effectively unbounded in the
            # paper's setup (concurrency is capped upstream by the
            # connection pools).
            return 100_000
        raise ConfigurationError(f"unknown tier {tier!r}")


class NTierApplication:
    """Wires tiers, pools, and the request flow together.

    The flow is one callback per hop. Admitting a request to a server
    starts its first phase there (:meth:`Server.admit`), and a last
    phase returns that server's thread as it completes, so each server
    transition stamps the completion event once:

    * :meth:`submit` admits the request to a web server and its web
      phase;
    * ``_web_work_done`` admits it to an app server and the phase
      before the DB call;
    * ``_app_pre_done`` waits for one of that app server's DB
      connections, and ``_conn_granted`` admits the request to a DB
      server and its only phase there (``release=True``);
    * ``_db_done`` returns the connection and starts the app phase
      after the DB call, the last there (:meth:`Server.work`);
    * ``_app_post_done`` returns the web thread and completes the
      request.
    """

    def __init__(
        self,
        sim: Simulator,
        soft: SoftResourceAllocation | None = None,
        balancing: str = "leastconn",
    ) -> None:
        self.sim = sim
        self.soft = soft or SoftResourceAllocation()
        self.tiers: dict[str, Tier] = {
            WEB: Tier(WEB, balancing),
            APP: Tier(APP, balancing),
            DB: Tier(DB, balancing),
        }
        # One DB connection pool per app server, keyed by server name.
        self.conn_pools: dict[str, FifoPool] = {}
        self._on_complete: list[Callable[[Request], None]] = []
        self._on_fail: list[Callable[[Request], None]] = []
        self.submitted = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------
    # topology management
    # ------------------------------------------------------------------
    def attach_server(self, server: Server, db_connections: int | None = None) -> None:
        """Add a server to its tier; app servers also get a conn pool."""
        tier = self.tiers.get(server.tier)
        if tier is None:
            raise ConfigurationError(f"unknown tier {server.tier!r}")
        if server.tier == APP:
            limit = db_connections if db_connections is not None else (
                self.soft.db_connections
            )
            self.conn_pools[server.name] = FifoPool(f"{server.name}.dbconn", limit)
        tier.add_server(server)

    def detach_conn_pool(self, server_name: str) -> None:
        """Drop the conn pool of a retired app server."""
        self.conn_pools.pop(server_name, None)

    def topology(self) -> tuple[int, int, int]:
        """Live server counts as the paper's #Web/#App/#DB notation."""
        return (self.tiers[WEB].size, self.tiers[APP].size, self.tiers[DB].size)

    @property
    def in_flight(self) -> int:
        """Requests submitted but neither completed nor failed."""
        return self.submitted - self.completed - self.failed

    def soft_cap(self, tier: str) -> int:
        """A tier's soft-resource concurrency limit.

        For the web and app tiers, the summed thread limits of the live
        servers (a draining server takes no new requests); for the DB
        tier, the summed connection pools of every app server, a
        draining one's included (its requests still reach MySQL). The
        fluid stepper bounds its occupancy by this cap, and
        :meth:`admission_pressure` reports it as the capacity.
        """
        if tier == DB:
            return sum(p.limit for p in self.conn_pools.values())
        return sum(s.threads.limit for s in self._tier(tier).servers)

    def admission_pressure(self, tier: str) -> tuple[int, int]:
        """``(queued, soft_cap(tier))`` at a tier's admission points.

        For the web and app tiers these are the server thread pools; for
        the DB tier the per-app-server connection pools (which is where
        requests destined for MySQL actually wait). The scaling policy
        combines this with CPU utilisation into the hybrid threshold
        the paper describes: a tier whose soft resources are capped at
        its optimal concurrency can be overloaded while its CPU hovers
        just under the utilisation threshold.
        """
        if tier == DB:
            queued = sum(p.queued for p in self.conn_pools.values())
        else:
            queued = sum(s.threads.queued for s in self._tier(tier).servers)
        return (queued, self.soft_cap(tier))

    def _tier(self, tier: str) -> Tier:
        t = self.tiers.get(tier)
        if t is None:
            raise ConfigurationError(f"unknown tier {tier!r}")
        return t

    def record_synthetic_completion(self, count: int) -> None:
        """Account one fluid step's ``count`` completions as whole lifecycles.

        The fluid integrator does not route requests through the tiers;
        it deposits aggregate state into the servers directly (see
        :meth:`~repro.ntier.server.Server.absorb_flow`), logs the step's
        completions in one batch into the run's request log, and counts
        them here, so the application-level conservation law
        (``submitted == completed + failed + in_flight``) holds across
        mode switches. The completion listeners are not called: they
        see discrete completions only.
        """
        if count < 0:
            raise SimulationError(f"negative synthetic completion count {count}")
        self.submitted += count
        self.completed += count

    def on_complete(self, listener: Callable[[Request], None]) -> None:
        """Register a listener for discrete completions (monitoring,
        closed-loop users); fluid-phase completions bypass it."""
        self._on_complete.append(listener)

    def on_fail(self, listener: Callable[[Request], None]) -> None:
        """Register a failure listener (client retry logic, monitoring)."""
        self._on_fail.append(listener)

    # ------------------------------------------------------------------
    # failure flow (server crashes)
    # ------------------------------------------------------------------
    def fail_request(self, request: Request, reason: str = "fault") -> None:
        """Abort an in-flight request, unwinding every resource it holds.

        Worker threads at every tier it occupies are returned (without
        counting completions there), a held or awaited DB connection
        permit is released or cancelled, and the request leaves the
        system as *failed*: its ``completion`` stays None and the
        failure listeners fire instead of the completion ones.
        """
        if request.done or request.failed:
            return
        request.failed = True
        pool = request._conn_pool
        if pool is not None:
            request._conn_pool = None
            if not pool.cancel(request):
                pool.release()
        for server in list(request._servers.values()):
            if not server.abort(request):
                server.threads.cancel(request)
        request._servers.clear()
        self.failed += 1
        for listener in self._on_fail:
            listener(request)

    def crash_server(self, server: Server, reason: str = "crash") -> list[Request]:
        """Fail everything a crashed server holds; returns the victims.

        The caller must already have removed the server from its tier
        (no new requests may route here while we unwind). Queued
        requests are failed before admitted ones so thread releases
        cannot re-admit them into the dying server; conn-pool waiters of
        *other* servers woken by released permits re-route to surviving
        replicas as in a real failover.
        """
        victims = server.threads.waiting_tokens() + server.occupants()
        for request in victims:
            self.fail_request(request, reason)
        if not server.is_idle:  # pragma: no cover - bookkeeping invariant
            raise SimulationError(
                f"{server.name}: not idle after crash unwinding "
                f"(admitted={server.admitted}, queued={server.threads.queued})"
            )
        return victims

    # ------------------------------------------------------------------
    # request flow (one callback per hop)
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Inject a request; its ``arrival`` must equal the current time."""
        self.submitted += 1
        web = self.tiers[WEB].route()
        request._servers[WEB] = web
        web.admit(request, request.demands[WEB], self._web_work_done)

    def _web_work_done(self, request: Request) -> None:
        if request.failed:
            return
        app = self.tiers[APP].route()
        request._servers[APP] = app
        app.admit(
            request, request.demands[APP] * _APP_PRE_FRACTION, self._app_pre_done
        )

    def _app_pre_done(self, request: Request) -> None:
        if request.failed:
            return
        app = request._servers[APP]
        pool = self.conn_pools[app.name]
        request._conn_pool = pool
        pool.acquire(request, self._conn_granted)

    def _conn_granted(self, request: Request) -> None:
        if request.failed:  # pragma: no cover - defensive
            # Granted a permit after failing: hand it straight back.
            pool = request._conn_pool
            request._conn_pool = None
            if pool is not None:
                pool.release()
            return
        db = self.tiers[DB].route()
        request._servers[DB] = db
        db.admit(request, request.demands[DB], self._db_done, release=True)

    def _db_done(self, request: Request) -> None:
        if request.failed:
            return
        pool = request._conn_pool
        request._conn_pool = None
        pool.release()  # type: ignore[union-attr]
        app = request._servers[APP]
        app.work(
            request,
            request.demands[APP] * (1.0 - _APP_PRE_FRACTION),
            self._app_post_done,
        )

    def _app_post_done(self, request: Request) -> None:
        if request.failed:
            return
        request._servers[WEB].release(request)
        request.completion = self.sim.now
        self.completed += 1
        request._servers.clear()
        for listener in self._on_complete:
            listener(request)
