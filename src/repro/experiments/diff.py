"""Compare two run artifacts' decision traces: ``repro diff``.

Controller changes (a headroom tweak, a policy override, a different
framework) are easiest to understand as a *decision diff*: given two
artifacts for the **same scenario**, find the first point where the
controllers decided differently, then summarise how the per-tier
soft-resource cap decisions and the tail latencies moved.

Divergence is computed over the traces' comparison keys
(``(time, kind, tier, value)``) — free-text reasons are excluded, so a
reworded justification never counts as a behavioural difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.control.events import SOFT_KINDS, DecisionEvent
from repro.control.trace import DecisionTrace
from repro.errors import ExperimentError
from repro.experiments.artifact import RunArtifact, content_digest

__all__ = ["DivergencePoint", "CapDecisionDelta", "ArtifactDiff", "diff_artifacts"]


@dataclass(frozen=True)
class DivergencePoint:
    """The first position where two traces made different decisions.

    ``event_a`` / ``event_b`` is None when that trace ended before the
    divergence index (one trace is a strict prefix of the other).
    """

    index: int
    time: float
    event_a: DecisionEvent | None
    event_b: DecisionEvent | None


@dataclass(frozen=True)
class CapDecisionDelta:
    """How one tier's soft-resource cap decisions differ between runs."""

    tier: str
    kind: str
    count_a: int
    count_b: int
    final_a: int | None
    final_b: int | None

    @property
    def changed(self) -> bool:
        return self.count_a != self.count_b or self.final_a != self.final_b


@dataclass
class ArtifactDiff:
    """The full comparison of two artifacts over one scenario."""

    label_a: str
    label_b: str
    events_a: int
    events_b: int
    divergence: DivergencePoint | None
    cap_deltas: list[CapDecisionDelta] = field(default_factory=list)
    tail_ms_a: dict[str, float] = field(default_factory=dict)
    tail_ms_b: dict[str, float] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        """Human-readable report (what ``repro diff`` prints)."""
        lines = [f"A: {self.label_a}", f"B: {self.label_b}"]
        if self.divergence is None:
            lines.append(
                f"no divergence: both traces made the same "
                f"{self.events_a} decision(s)"
            )
            return "\n".join(lines)
        d = self.divergence
        lines.append(
            f"first divergence at t={d.time:.2f}s (decision #{d.index})"
        )
        for side, event in (("A", d.event_a), ("B", d.event_b)):
            if event is None:
                lines.append(f"  {side}: <trace ended>")
            else:
                lines.append(f"  {side}: {DecisionTrace.render([event])}")
        if self.cap_deltas:
            lines.append("cap decisions (per tier):")
            for delta in self.cap_deltas:
                final_a = "-" if delta.final_a is None else str(delta.final_a)
                final_b = "-" if delta.final_b is None else str(delta.final_b)
                lines.append(
                    f"  {delta.tier:<4} {delta.kind:<18} "
                    f"decisions {delta.count_a} vs {delta.count_b}, "
                    f"final cap {final_a} vs {final_b}"
                )
        if self.tail_ms_a and self.tail_ms_b:
            lines.append("tail latency (post-warm-up, ms):")
            for q in ("p50", "p95", "p99"):
                a, b = self.tail_ms_a[q], self.tail_ms_b[q]
                lines.append(
                    f"  {q:<4} {a:9.1f} vs {b:9.1f}  ({b - a:+.1f})"
                )
        return "\n".join(lines)


def _first_divergence(
    trace_a: DecisionTrace, trace_b: DecisionTrace, include_noops: bool
) -> DivergencePoint | None:
    keys_a = trace_a.keys(include_noops=include_noops)
    keys_b = trace_b.keys(include_noops=include_noops)
    events_a = trace_a.all() if include_noops else trace_a.material()
    events_b = trace_b.all() if include_noops else trace_b.material()
    for i, (ka, kb) in enumerate(zip(keys_a, keys_b)):
        if ka != kb:
            return DivergencePoint(
                index=i,
                time=min(ka[0], kb[0]),
                event_a=events_a[i],
                event_b=events_b[i],
            )
    if len(keys_a) == len(keys_b):
        return None
    # One trace is a strict prefix of the other.
    i = min(len(keys_a), len(keys_b))
    longer = events_a if len(keys_a) > len(keys_b) else events_b
    return DivergencePoint(
        index=i,
        time=longer[i].time,
        event_a=events_a[i] if i < len(events_a) else None,
        event_b=events_b[i] if i < len(events_b) else None,
    )


def _cap_deltas(
    trace_a: DecisionTrace, trace_b: DecisionTrace
) -> list[CapDecisionDelta]:
    deltas: list[CapDecisionDelta] = []
    soft = sorted(
        {(e.tier, e.kind) for e in trace_a.of_kind(*SOFT_KINDS)}
        | {(e.tier, e.kind) for e in trace_b.of_kind(*SOFT_KINDS)}
    )
    for tier, kind in soft:
        caps_a = trace_a.cap_decisions(tier, kind)
        caps_b = trace_b.cap_decisions(tier, kind)
        deltas.append(
            CapDecisionDelta(
                tier=tier,
                kind=kind,
                count_a=len(caps_a),
                count_b=len(caps_b),
                final_a=caps_a[-1][1] if caps_a else None,
                final_b=caps_b[-1][1] if caps_b else None,
            )
        )
    return deltas


def _tail_ms(artifact: RunArtifact) -> dict[str, float]:
    try:
        tail = artifact.tail()
    except ExperimentError:
        return {}
    return {
        "p50": tail.p50 * 1000, "p95": tail.p95 * 1000, "p99": tail.p99 * 1000
    }


def _param_str(name: str, value) -> str:
    """One ``name=value`` label fragment: floats render with ``:g`` (so
    ``headroom=3.0`` reads ``headroom=3``), switches as ``True``/``False``."""
    if isinstance(value, float):
        return f"{name}={value:g}"
    return f"{name}={value}"


def _label(artifact: RunArtifact) -> str:
    spec = artifact.spec
    over = spec.overrides
    extras = [
        _param_str(name, value)
        for name, value in sorted(over.params_dict().items())
    ]
    if over.policy_overrides is not None:
        extras.append("policy-overrides")
    suffix = f" [{', '.join(extras)}]" if extras else ""
    return f"{spec.label}{suffix} ({spec.digest()[:12]})"


def diff_artifacts(
    a: RunArtifact, b: RunArtifact, include_noops: bool = True
) -> ArtifactDiff:
    """Diff two artifacts' decision traces over the same scenario.

    The two specs must share the scenario (``ScenarioConfig``); they may
    differ in framework or overrides — that is the controller change the
    diff explains. Comparing across different scenarios is rejected:
    such traces diverge for workload reasons, not controller reasons.
    """
    if content_digest(a.config) != content_digest(b.config):
        raise ExperimentError(
            "artifacts come from different scenarios "
            f"({a.config.name!r}/{a.config.trace_name!r} vs "
            f"{b.config.name!r}/{b.config.trace_name!r}); "
            "repro diff compares controller changes over one scenario"
        )
    return ArtifactDiff(
        label_a=_label(a),
        label_b=_label(b),
        events_a=len(a.actions.keys(include_noops=include_noops)),
        events_b=len(b.actions.keys(include_noops=include_noops)),
        divergence=_first_divergence(a.actions, b.actions, include_noops),
        cap_deltas=_cap_deltas(a.actions, b.actions),
        tail_ms_a=_tail_ms(a),
        tail_ms_b=_tail_ms(b),
    )
