"""A tier: the load-balanced set of server instances for one role."""

from __future__ import annotations

from repro.errors import ConfigurationError, ScalingError
from repro.ntier.balancer import Balancer, make_balancer
from repro.ntier.server import Server

__all__ = ["Tier"]


class Tier:
    """Web, app, or DB tier of the n-tier application.

    Holds the live (routable) servers behind a balancer plus any
    *draining* servers: instances selected for scale-in stop receiving
    new requests but finish their in-flight ones, implementing the
    paper's "slow turn-off" semantics.
    """

    def __init__(self, name: str, balancing: str = "leastconn") -> None:
        self.name = name
        self._balancer: Balancer = make_balancer(balancing)
        self._servers: list[Server] = []
        self._draining: list[Server] = []

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def servers(self) -> list[Server]:
        """Live servers, in attachment order."""
        return list(self._servers)

    @property
    def draining(self) -> list[Server]:
        """Servers finishing their last requests before removal."""
        return list(self._draining)

    @property
    def size(self) -> int:
        """Number of live servers."""
        return len(self._servers)

    def add_server(self, server: Server) -> None:
        """Attach a newly provisioned server and start routing to it."""
        if server.tier != self.name:
            raise ConfigurationError(
                f"server {server.name!r} belongs to tier {server.tier!r}, "
                f"not {self.name!r}"
            )
        if any(s.name == server.name for s in self._servers):
            raise ScalingError(f"tier {self.name!r} already has {server.name!r}")
        self._servers.append(server)

    def begin_drain(self, server: Server | None = None) -> Server:
        """Stop routing to one server (default: the most recently added).

        Returns the draining server; call :meth:`collect_drained` to
        retire it once it is empty.
        """
        if not self._servers:
            raise ScalingError(f"tier {self.name!r} has no server to drain")
        if len(self._servers) == 1:
            raise ScalingError(f"tier {self.name!r} cannot drain its last server")
        if server is None:
            server = self._servers[-1]
        try:
            self._servers.remove(server)
        except ValueError:
            raise ScalingError(
                f"server {server.name!r} is not live in tier {self.name!r}"
            ) from None
        self._draining.append(server)
        return server

    def eject(self, server: Server) -> None:
        """Remove a dead server immediately, live or draining.

        Unlike :meth:`begin_drain`/:meth:`collect_drained` this is the
        *crash* path: no idleness requirement, no grace — the balancer
        simply stops seeing the replica. Callers are responsible for
        failing whatever the server still held.
        """
        if server in self._servers:
            self._servers.remove(server)
        elif server in self._draining:
            self._draining.remove(server)
        else:
            raise ScalingError(
                f"server {server.name!r} is not part of tier {self.name!r}"
            )

    def collect_drained(self) -> list[Server]:
        """Retire and return every draining server that has gone idle."""
        done = [s for s in self._draining if s.is_idle]
        for server in done:
            self._draining.remove(server)
        return done

    # ------------------------------------------------------------------
    # routing & metrics
    # ------------------------------------------------------------------
    def route(self) -> Server:
        """Pick the live server for a new request."""
        return self._balancer.pick(self._servers)

    def all_instances(self) -> list[Server]:
        """Live plus draining servers (for monitoring)."""
        return self._servers + self._draining

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tier({self.name!r}, live={[s.name for s in self._servers]}, "
            f"draining={[s.name for s in self._draining]})"
        )
