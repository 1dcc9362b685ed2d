"""Twin checks: run a spec and a variant twin, compare what both observe.

Every determinism gate the reproduction leans on has one shape: execute
a :class:`RunSpec` twice — a *reference* run and a *variant* that must
not change anything observable — then compare named surfaces of the two
artifacts. :data:`CHECKS` is the table of those gates:

``race``
    The spec under ``Simulator()`` versus
    ``Simulator(tie_order="reverse")``, which executes every concurrent
    same-(time, priority) batch backwards. Exact comparator: the content
    digest of every observable surface (:func:`observable_digests`) must
    match. Any difference is a tie-order race — an observable that hangs
    on a scheduling accident, exactly the environment nondeterminism the
    bit-reproducibility contract exists to exclude.
``fluid``
    A ``mode="hybrid"`` spec versus its ``mode="discrete"`` twin.
    Statistical comparator: the fluid integrator approximates by design,
    so request conservation must hold exactly, while completed-request
    throughput and the p50/p95/p99 latency tail must stay inside a
    calibrated tolerance band around the twin.

Both runs bypass the result cache: a variant run must never be
published under the spec's digest. A clean check returns a
:class:`TwinCheckReport` carrying the facts that show it was not vacuous
(concurrent batches permuted, fluid phases entered); a divergence raises
:class:`~repro.errors.TwinDivergenceError` naming the check, the spec
and every diverging surface. :func:`run_twin_suite` runs one check over
its default spec suite — the CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.control.events import MODE_KINDS
from repro.control.trace import DecisionTrace
from repro.errors import ConfigurationError, TwinDivergenceError
from repro.experiments.artifact import (
    DecodedInteractions,
    DerivedLatencies,
    RunArtifact,
    RunSpec,
    content_digest,
)
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.faults.plan import FaultPlan, ServerCrashSpec, TelemetryDropoutSpec
from repro.sim.engine import Simulator
from repro.workload.shapes import TRACE_NAMES, steady_trace_csv

__all__ = [
    "CHECKS",
    "TwinCheck",
    "TwinCheckReport",
    "default_specs",
    "observable_digests",
    "run_twin_check",
    "run_twin_suite",
]

#: Relative tolerance on completed-request throughput (fluid vs twin).
THROUGHPUT_TOL = 0.05
#: Relative tolerances on the latency percentiles. Looser toward the
#: tail: the fluid phases draw latencies from the stationary model, so
#: extreme order statistics carry the most approximation error.
PERCENTILE_TOLS = ((50, 0.35), (95, 0.40), (99, 0.50))
#: Absolute slack (base-scale seconds) under which a percentile gap is
#: never a divergence — short runs quantise tails onto few samples.
PERCENTILE_FLOOR = 0.025


@dataclass(frozen=True)
class TwinCheckReport:
    """Outcome of one clean twin check (a divergence raises instead)."""

    check: str
    label: str
    spec_digest: str
    #: Events the variant run executed.
    events_executed: int
    #: Concurrent same-(time, priority) batches the variant permuted
    #: (non-zero only under ``race``).
    tie_batches: int
    #: Events executed inside those batches.
    tie_events: int
    #: Fluid phases the variant's governor entered (0 for discrete runs).
    fluid_entries: int
    #: Requests handed back to the discrete machinery at mode switches.
    materialised: int
    #: (variant, reference) completed-request counts.
    completed: tuple[int, int]
    #: Percentile pairs ``{q: (variant_s, reference_s)}`` (base-scale).
    percentiles: dict[int, tuple[float, float]]

    def describe(self) -> str:
        return (
            f"{self.check} twin check clean: {self.label}, "
            f"{self.events_executed} events, "
            + CHECKS[self.check].summary(self)
        )


@dataclass(frozen=True)
class TwinCheck:
    """One row of :data:`CHECKS`: how to build the twins, how to compare."""

    #: ``spec -> (reference, variant, variant simulator)``.
    execute: Callable[[RunSpec], tuple[RunArtifact, RunArtifact, Simulator]]
    #: ``(reference, variant) -> diverging surfaces`` (with the gap).
    compare: Callable[[RunArtifact, RunArtifact], list[str]]
    #: The default suite of :func:`run_twin_suite`.
    default_specs: Callable[..., list[RunSpec]]
    #: What a clean report adds to the common head line.
    summary: Callable[[TwinCheckReport], str]


# ----------------------------------------------------------------------
# race: reversed tie order, exact comparator
# ----------------------------------------------------------------------

def _trace_multiset_key(trace: DecisionTrace) -> tuple:
    """The trace with concurrent events canonicalised.

    Events are sorted within equal timestamps by their full field tuple,
    so two traces compare equal iff they carry the same *multiset* of
    events at every instant — the observable guarantee once intra-instant
    order is declared a scheduling accident (the relative order of
    concurrent bus events is itself the tie-break under test).
    """
    keyed = [
        (e.time, e.kind, e.tier, repr(e.value), e.detail, e.source, e.reason,
         repr(e.estimate))
        for e in trace
    ]
    return tuple(sorted(keyed))


def observable_digests(artifact: RunArtifact) -> dict[str, str]:
    """Content digests of every observable surface of a run."""
    return {
        "request records": content_digest(
            (
                artifact.arrival_times,
                artifact.completion_times,
                DerivedLatencies(
                    artifact.completion_times, artifact.arrival_times,
                    artifact.config.rt_scale,
                ),
                DecodedInteractions(
                    artifact.interaction_codes, artifact.interaction_names
                ),
                artifact.generated,
                artifact.completed,
                artifact.failed,
                artifact.retried,
            )
        ),
        "decision trace": content_digest(_trace_multiset_key(artifact.actions)),
        "vm timeline": content_digest(
            (artifact.vm_times, artifact.vm_counts, artifact.vm_counts_by_tier)
        ),
        "warehouse series": content_digest(
            (
                artifact.cpu_series,
                [
                    (s.server, s.tier, s.t_end, s.concurrency, s.throughput,
                     s.response_time, s.completions)
                    for _, s in sorted(artifact.fine_series.items())
                ],
            )
        ),
        "sct estimates": content_digest(artifact.estimate_keys()),
        "resilience summary": content_digest(artifact.resilience),
    }


def _race_twins(spec: RunSpec) -> tuple[RunArtifact, RunArtifact, Simulator]:
    permuted = Simulator(tie_order="reverse")
    canonical = execute_spec(spec, sim=Simulator())
    return canonical, execute_spec(spec, sim=permuted), permuted


def _exact_surfaces(reference: RunArtifact, variant: RunArtifact) -> list[str]:
    a = observable_digests(reference)
    b = observable_digests(variant)
    return [name for name in a if a[name] != b[name]]


def _race_specs(
    *, duration: float = 40.0, load_scale: float = 300.0
) -> list[RunSpec]:
    """Every built-in trace shape, plus one crash/dropout run.

    Short, heavily down-scaled runs — the point is path coverage (all six
    arrival shapes, plus the crash and telemetry-blackout control paths
    of the fault machinery), not statistical fidelity. The scenario names
    are digest-covered, so they stay as first spelled.
    """
    specs = [
        RunSpec(
            framework="conscale",
            config=ScenarioConfig(
                name="calequiv", trace_name=trace,
                load_scale=load_scale, duration=duration, seed=7,
            ),
        )
        for trace in TRACE_NAMES
    ]
    # Two app replicas so the mid-run crash leaves the tier routable.
    faulted = ScenarioConfig(
        name="calequiv-faulted", trace_name="dual_phase",
        load_scale=load_scale, duration=duration, seed=7,
        topology=(1, 2, 1),
    )
    specs.append(
        RunSpec(
            framework="conscale",
            config=faulted,
            faults=FaultPlan(
                (
                    ServerCrashSpec(tier="app", at=duration * 0.3),
                    TelemetryDropoutSpec(at=duration * 0.5, duration=5.0),
                )
            ),
        )
    )
    return specs


def _race_summary(report: TwinCheckReport) -> str:
    return (
        f"{report.tie_batches} concurrent batch(es) ({report.tie_events} "
        "events) replayed in reversed tie-break order with no observable "
        "divergence"
    )


# ----------------------------------------------------------------------
# fluid: discrete twin, statistical comparator
# ----------------------------------------------------------------------

def _mode_accounting(artifact: RunArtifact) -> tuple[int, int]:
    """(fluid entries, total re-materialised requests) from the trace."""
    entered, materialised = 0, 0
    for event in artifact.actions:
        if event.kind == MODE_KINDS[0]:
            entered += 1
        elif event.kind == MODE_KINDS[1]:
            materialised += int(event.value or 0)
    return entered, materialised


def _fluid_twins(spec: RunSpec) -> tuple[RunArtifact, RunArtifact, Simulator]:
    config = spec.config
    if config.mode == "discrete":
        raise ConfigurationError(
            "the fluid twin check needs a hybrid spec; got mode='discrete'"
        )
    twin = RunSpec(
        spec.framework,
        config.with_(mode="discrete"),
        spec.overrides,
        spec.faults,
    )
    sim = Simulator()
    fluid_run = execute_spec(spec, sim=sim)
    return execute_spec(twin), fluid_run, sim


def _statistical_surfaces(
    reference: RunArtifact, variant: RunArtifact
) -> list[str]:
    surfaces = []
    if variant.generated < variant.completed + variant.failed:
        surfaces.append(
            f"request conservation: generated={variant.generated} < "
            f"completed={variant.completed} + failed={variant.failed}"
        )
    ratio = variant.completed / max(1, reference.completed)
    if abs(ratio - 1.0) > THROUGHPUT_TOL:
        surfaces.append(
            f"throughput divergence: completed {variant.completed} vs "
            f"discrete {reference.completed} ({(ratio - 1.0) * 100:+.1f}%, "
            f"tolerance ±{THROUGHPUT_TOL * 100:.0f}%)"
        )
    for q, tol in PERCENTILE_TOLS:
        got = float(variant.percentile(q))
        want = float(reference.percentile(q))
        slack = max(tol * want, PERCENTILE_FLOOR)
        if abs(got - want) > slack:
            surfaces.append(
                f"latency divergence: p{q} {got * 1000:.1f}ms vs discrete "
                f"{want * 1000:.1f}ms (allowed ±{slack * 1000:.1f}ms)"
            )
    return surfaces


def _fluid_specs(
    *, duration: float = 300.0, load_scale: float = 300.0
) -> list[RunSpec]:
    """Three storylines: a steady run that is mostly fluid (the
    integrator under load, plus the controller-settle trigger), a bursty
    built-in shape (the trace-derivative trigger holds the burst
    discrete), and a faulted steady run (the fault-window guard, crash
    recovery, and re-materialisation around the episode)."""
    steady = steady_trace_csv(users=4000.0, duration=duration)

    def hybrid(name: str, trace: str) -> ScenarioConfig:
        return ScenarioConfig(
            name=name, trace_name=trace,
            load_scale=load_scale, duration=duration, seed=11,
            topology=(1, 2, 2), mode="hybrid",
        )

    return [
        RunSpec("conscale", hybrid("fluidequiv-steady", steady)),
        RunSpec("conscale", hybrid("fluidequiv-burst", "big_spike")),
        RunSpec(
            "conscale",
            hybrid("fluidequiv-faulted", steady),
            faults=FaultPlan((ServerCrashSpec(tier="app", at=duration * 0.5),)),
        ),
    ]


def _fluid_summary(report: TwinCheckReport) -> str:
    pairs = ", ".join(
        f"p{q} {v * 1000:.1f}/{r * 1000:.1f}ms"
        for q, (v, r) in sorted(report.percentiles.items())
    )
    variant, reference = report.completed
    return (
        f"{report.fluid_entries} fluid phase(s), {report.materialised} "
        f"request(s) re-materialised, completed {variant}/{reference}, "
        f"{pairs}"
    )


# ----------------------------------------------------------------------
# the table and its driver
# ----------------------------------------------------------------------

#: The twin checks by name (the values of ``repro run --check``).
CHECKS: dict[str, TwinCheck] = {
    "race": TwinCheck(_race_twins, _exact_surfaces, _race_specs, _race_summary),
    "fluid": TwinCheck(
        _fluid_twins, _statistical_surfaces, _fluid_specs, _fluid_summary
    ),
}


def _check(name: str) -> TwinCheck:
    try:
        return CHECKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown twin check {name!r}; expected one of {sorted(CHECKS)}"
        ) from None


def default_specs(check: str, **kwargs: float) -> list[RunSpec]:
    """The default suite of one check (``duration``/``load_scale``
    keywords shrink or grow it)."""
    return _check(check).default_specs(**kwargs)


def run_twin_check(
    spec: RunSpec, check: str, *, require_fluid: bool = False
) -> TwinCheckReport:
    """Execute ``spec`` and its ``check`` twin; compare every surface.

    Returns a :class:`TwinCheckReport` when every surface matches (or,
    under ``fluid``, sits inside tolerance); raises
    :class:`~repro.errors.TwinDivergenceError` naming all diverging
    surfaces otherwise. ``require_fluid`` also fails a hybrid spec whose
    governor never entered a fluid phase — a trivially passing check
    would hide a dead integrator.
    """
    row = _check(check)
    reference, variant, sim = row.execute(spec)
    surfaces = row.compare(reference, variant)
    entered, materialised = _mode_accounting(variant)
    if require_fluid and spec.config.mode == "hybrid" and entered == 0:
        surfaces.append(
            "mode accounting: the hybrid run never entered a fluid phase, "
            "so the check would be vacuous (pick a quieter trace or drop "
            "require_fluid)"
        )
    if surfaces:
        raise TwinDivergenceError(
            f"{check} twin check diverged on {spec.label}: "
            f"{'; '.join(surfaces)} (variant executed "
            f"{sim.events_executed} events, {sim.tie_batches} concurrent "
            "batch(es) permuted)"
        )
    return TwinCheckReport(
        check=check,
        label=spec.label,
        spec_digest=spec.digest(),
        events_executed=sim.events_executed,
        tie_batches=sim.tie_batches,
        tie_events=sim.tie_events,
        fluid_entries=entered,
        materialised=materialised,
        completed=(variant.completed, reference.completed),
        percentiles={
            q: (float(variant.percentile(q)), float(reference.percentile(q)))
            for q, _ in PERCENTILE_TOLS
        },
    )


def run_twin_suite(
    check: str, specs: list[RunSpec] | None = None
) -> list[TwinCheckReport]:
    """Run one check over a spec list (default: the check's suite).

    Fail-fast: the first divergence raises. The bursty fluid storyline
    may legitimately never leave discrete mode, so ``require_fluid`` is
    enforced only on the steady specs (those whose scenario name carries
    ``steady``).
    """
    if specs is None:
        specs = default_specs(check)
    return [
        run_twin_check(spec, check, require_fluid="steady" in spec.config.name)
        for spec in specs
    ]
