"""Per-run resilience accounting.

Every fault activation the injector performs is recorded as a
:class:`FaultEpisode`; after the run the engine folds them together
with the request-conservation counters into a
:class:`ResilienceSummary` stored on the artifact — failed/retried
counts and, per episode, the time the system took to return to its
pre-fault tail latency (p95 within 10 % of the pre-fault baseline).
Both types are plain frozen dataclasses so they flow through
``canonical()``/``content_digest`` and artifact signatures unchanged.

Storylined runs (correlated multi-fault incidents) additionally carry
compound metrics over the whole incident: the worst sliding-window p99
observed from incident open to the end of the run, the SLO-violation
integral (request-seconds of latency above :data:`SLO_LATENCY`), the
count of control actions taken while an episode was open, and — via
:attr:`ResilienceSummary.compound_ttr` — the time from incident open
until the *last* phase's tail recovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from repro.control.trace import DecisionTrace

__all__ = [
    "FaultEpisode",
    "ResilienceSummary",
    "build_resilience_summary",
    "recovery_vs_twin",
]

#: Recovery means: windowed p95 within this factor of the pre-fault one.
RECOVERY_FACTOR = 1.1
#: Length of the pre-fault baseline and of each post-fault probe window.
BASELINE_WINDOW = 30.0
PROBE_WINDOW = 10.0
#: Base-scale response-time objective behind ``slo_violation_s`` (the
#: paper's workloads keep healthy tails well under a second).
SLO_LATENCY = 1.0


@dataclass(frozen=True, slots=True)
class FaultEpisode:
    """One fault activation as it actually happened in the run."""

    kind: str
    tier: str
    detail: str
    start: float
    end: float
    failed: int = 0


@dataclass(frozen=True, slots=True)
class ResilienceSummary:
    """Resilience accounting for one run (artifact field).

    ``recovery_s`` aligns with ``episodes``: seconds after each
    episode's end until the windowed p95 latency re-entered
    ``RECOVERY_FACTOR`` times the pre-fault baseline, or NaN when not
    computable (no pre-fault completions, or never recovered within
    the run).
    """

    failed: int = 0
    retried: int = 0
    timeouts: int = 0
    abandoned: int = 0
    episodes: tuple[FaultEpisode, ...] = ()
    recovery_s: tuple[float, ...] = ()
    #: Storyline the run's fault plan was lowered from (None otherwise).
    storyline: str | None = None
    #: Worst sliding-window p99 from incident open to the run horizon.
    worst_p99: float = float("nan")
    #: Request-seconds of latency above :data:`SLO_LATENCY` accumulated
    #: by completions after the incident opened.
    slo_violation_s: float = 0.0
    #: Hardware/soft-resource actions taken while an episode was open
    #: (instantaneous episodes count a PROBE_WINDOW-long span).
    incident_actions: int = 0
    #: Seconds from incident open until every crash-ejected replica had
    #: a replacement ready in its tier (0.0 with no ejections, NaN if
    #: the fleet was still short at the horizon). An incident is not
    #: over while the fleet is — this is the component of recovery
    #: that pre-warm/expedited provisioning actually accelerates.
    restore_s: float = 0.0

    @property
    def compound_ttr(self) -> float:
        """Seconds from incident open until the last phase recovered
        *and* the fleet was whole again.

        NaN when any phase's recovery time (or a pending replacement)
        is not computable — a compound incident has not recovered
        until *every* phase has healed and every ejected replica has
        been replaced.
        """
        if not self.episodes or len(self.episodes) != len(self.recovery_s):
            return float("nan")
        t0 = min(ep.start for ep in self.episodes)
        last = 0.0
        for ep, rec in zip(self.episodes, self.recovery_s):
            if np.isnan(rec):
                return float("nan")
            last = max(last, ep.end + rec)
        if np.isnan(self.restore_s):
            return float("nan")
        return max(last - t0, self.restore_s)


def _window_ends(t0: float, horizon: float) -> Iterator[float]:
    """Ends of the probe windows sliding forward from ``t0``.

    The first window is ``[t0, t0 + PROBE_WINDOW)``; each next one is
    half a window later, and none ends past ``horizon``. Integer
    stepping keeps every scan over these windows bit-exact.
    """
    step = PROBE_WINDOW / 2.0
    n_steps = int(max(0.0, horizon - t0) / step) + 1
    for k in range(n_steps):
        t1 = t0 + PROBE_WINDOW + k * step
        if t1 > horizon + 1e-9:
            return
        yield t1


def _window_p95(
    latencies: np.ndarray, completions: np.ndarray, t0: float, t1: float
) -> float:
    mask = (completions >= t0) & (completions < t1)
    if not mask.any():
        return float("nan")
    return float(np.percentile(latencies[mask], 95))


def _recovery_time(
    latencies: np.ndarray,
    completions: np.ndarray,
    episode: FaultEpisode,
    horizon: float,
) -> float:
    baseline = _window_p95(
        latencies, completions, episode.start - BASELINE_WINDOW, episode.start
    )
    if np.isnan(baseline) or baseline <= 0:
        return float("nan")
    target = RECOVERY_FACTOR * baseline
    # Slide the probe window forward until the tail is back under target.
    for t1 in _window_ends(episode.end, horizon):
        p95 = _window_p95(latencies, completions, t1 - PROBE_WINDOW, t1)
        if not np.isnan(p95) and p95 <= target:
            return max(0.0, t1 - episode.end)
    return float("nan")


def _worst_window_p99(
    latencies: np.ndarray,
    completions: np.ndarray,
    t0: float,
    horizon: float,
) -> float:
    """Max sliding-window p99 from ``t0`` to the horizon (NaN if empty)."""
    worst = float("nan")
    for t1 in _window_ends(t0, horizon):
        mask = (completions >= t1 - PROBE_WINDOW) & (completions < t1)
        if not mask.any():
            continue
        p99 = float(np.percentile(latencies[mask], 99))
        if np.isnan(worst) or p99 > worst:
            worst = p99
    return worst


def recovery_vs_twin(
    latencies: np.ndarray,
    completions: np.ndarray,
    twin_latencies: np.ndarray,
    twin_completions: np.ndarray,
    episode: FaultEpisode,
    horizon: float,
) -> float:
    """Recovery time measured against a fault-free twin run.

    Like the in-run recovery scan, but the target tracks the twin's
    windowed p95 *at the same simulation times* instead of a frozen
    pre-fault snapshot. A controller whose tail drifts endogenously
    (e.g. the MPC baseline's conservative cap spiral under load it
    cannot model) then still registers as recovered once the fault's
    *additional* damage is gone — the drift is present in both runs
    and cancels.
    """
    for t1 in _window_ends(episode.end, horizon):
        own = _window_p95(latencies, completions, t1 - PROBE_WINDOW, t1)
        ref = _window_p95(
            twin_latencies, twin_completions, t1 - PROBE_WINDOW, t1
        )
        if np.isnan(own) or np.isnan(ref) or ref <= 0:
            continue
        if own <= RECOVERY_FACTOR * ref:
            return max(0.0, t1 - episode.end)
    return float("nan")


def _capacity_restore_s(
    trace: "DecisionTrace", t0: float
) -> float:
    """Seconds from ``t0`` until every ejected replica was replaced.

    Each ``server_ejected`` event is matched with the first
    still-unconsumed ``scale_out_ready`` on the same tier after it
    (readies that predate the ejection served ordinary load growth).
    Returns 0.0 when nothing was ejected and NaN when some ejection
    was never made whole within the run.
    """
    ejections: dict[str, list[float]] = {}
    readies: dict[str, list[float]] = {}
    for event in trace:
        if event.kind == "server_ejected":
            ejections.setdefault(event.tier, []).append(event.time)
        elif event.kind == "scale_out_ready":
            readies.setdefault(event.tier, []).append(event.time)
    if not ejections:
        return 0.0
    worst = 0.0
    for tier, ejected_at in ejections.items():
        ready_at = readies.get(tier, [])
        i = 0
        for t_eject in ejected_at:
            while i < len(ready_at) and ready_at[i] <= t_eject:
                i += 1
            if i >= len(ready_at):
                return float("nan")
            worst = max(worst, ready_at[i] - t0)
            i += 1
    return worst


def _count_incident_actions(
    trace: "DecisionTrace", episodes: list[FaultEpisode]
) -> int:
    """Hardware + soft-resource actions taken while an episode was open.

    Instantaneous episodes (crashes) count actions within a
    PROBE_WINDOW-long span — the decisions the crash immediately
    provoked.
    """
    spans = [
        (ep.start, max(ep.end, ep.start + PROBE_WINDOW)) for ep in episodes
    ]
    count = 0
    for event in trace:
        if not (event.is_hardware or event.is_soft):
            continue
        if any(lo <= event.time <= hi for lo, hi in spans):
            count += 1
    return count


def build_resilience_summary(
    episodes: list[FaultEpisode],
    *,
    failed: int,
    retried: int,
    timeouts: int,
    abandoned: int,
    latencies: np.ndarray,
    completion_times: np.ndarray,
    horizon: float,
    storyline: str | None = None,
    trace: "DecisionTrace | None" = None,
) -> ResilienceSummary:
    """Fold injector episodes + run counters into the artifact summary.

    ``horizon`` is the last instant completions were recorded
    (scenario duration plus drain grace). ``storyline`` tags the
    summary with the incident template the fault plan was lowered
    from; ``trace`` (the run's decision trace) enables the
    actions-during-incident count.

    Episodes arrive in activation order, which for same-instant
    activations depends on event tie-breaking — canonicalise so the
    summary digests identically under any tie order.
    """
    episodes = sorted(
        episodes, key=lambda ep: (ep.start, ep.end, ep.kind, ep.tier, ep.detail)
    )
    recovery = tuple(
        _recovery_time(latencies, completion_times, ep, horizon)
        for ep in episodes
    )
    worst_p99 = float("nan")
    slo_violation = 0.0
    if episodes:
        incident_open = min(ep.start for ep in episodes)
        worst_p99 = _worst_window_p99(
            latencies, completion_times, incident_open, horizon
        )
        after = completion_times >= incident_open
        slo_violation = float(
            np.maximum(latencies[after] - SLO_LATENCY, 0.0).sum()
        )
    incident_actions = (
        _count_incident_actions(trace, episodes) if trace is not None else 0
    )
    restore = 0.0
    if trace is not None and episodes:
        restore = _capacity_restore_s(trace, min(ep.start for ep in episodes))
    return ResilienceSummary(
        failed=int(failed),
        retried=int(retried),
        timeouts=int(timeouts),
        abandoned=int(abandoned),
        episodes=tuple(episodes),
        recovery_s=recovery,
        storyline=storyline,
        worst_p99=worst_p99,
        slo_violation_s=round(slo_violation, 6),
        incident_actions=incident_actions,
        restore_s=restore,
    )
