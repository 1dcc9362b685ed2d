"""Request objects flowing through the n-tier system."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.ntier.server import Server

__all__ = ["Request"]


@dataclass(slots=True)
class Request:
    """A single client interaction travelling web → app → db and back.

    The per-tier service demands (seconds of work at concurrency 1) are
    drawn once at creation time by the workload generator from the
    RUBBoS interaction catalog, one for each of the web, app and db
    tiers (a :class:`~repro.experiments.calibration.Calibration` must
    give all three); the application flow reads ``demands[tier]`` as
    the request progresses. Per-server response times are summed by
    the servers (``Server.latency_total``); a request keeps no visit
    history.
    """

    req_id: int
    interaction: str
    arrival: float
    demands: dict[str, float]
    completion: float | None = None
    failed: bool = False

    # Transient routing state, owned by the application flow.
    _servers: dict[str, "Server"] = field(default_factory=dict, repr=False)
    _conn_pool: object | None = field(default=None, repr=False)

    @property
    def response_time(self) -> float:
        """End-to-end latency; raises if the request is still in flight."""
        if self.completion is None:
            raise ValueError(f"request {self.req_id} has not completed")
        return self.completion - self.arrival

    @property
    def done(self) -> bool:
        """Whether the request has left the system."""
        return self.completion is not None
