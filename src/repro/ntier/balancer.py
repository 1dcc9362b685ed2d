"""Load-balancing policies for routing between tiers.

The paper uses HAProxy in front of the app and DB tiers with the
``leastconn`` policy; ``roundrobin`` is provided for completeness and
for the ablation benches.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.errors import ConfigurationError
from repro.ntier.server import Server

__all__ = ["Balancer", "RoundRobinBalancer", "LeastConnBalancer", "make_balancer"]


class Balancer(Protocol):
    """Routing policy interface."""

    def pick(self, servers: Sequence[Server]) -> Server:
        """Choose the target server for a new request."""
        ...  # pragma: no cover - protocol


class RoundRobinBalancer:
    """Cycle through the live servers in order."""

    def __init__(self) -> None:
        self._next = 0

    def pick(self, servers: Sequence[Server]) -> Server:
        if not servers:
            raise ConfigurationError("cannot route: tier has no live servers")
        server = servers[self._next % len(servers)]
        self._next += 1
        return server


class LeastConnBalancer:
    """Route to the server with the fewest outstanding requests.

    "Outstanding" counts both admitted requests and those queued for a
    worker thread, which is what HAProxy's connection count sees. Ties
    break by position for determinism; a lone server is picked without
    reading its load.
    """

    def pick(self, servers: Sequence[Server]) -> Server:
        if len(servers) == 1:
            return servers[0]
        if not servers:
            raise ConfigurationError("cannot route: tier has no live servers")
        best = servers[0]
        best_load = best.outstanding
        for server in servers[1:]:
            load = server.outstanding
            if load < best_load:
                best, best_load = server, load
        return best


def make_balancer(policy: str) -> Balancer:
    """Construct a balancer from its HAProxy policy name."""
    if policy == "roundrobin":
        return RoundRobinBalancer()
    if policy == "leastconn":
        return LeastConnBalancer()
    raise ConfigurationError(
        f"unknown balancing policy {policy!r}; expected 'roundrobin' or 'leastconn'"
    )
