"""The resilience scenario suite: every controller under every fault.

Closes the loop on fault injection the same way ``figures``/``table1``
close it on the paper's evaluation: a declarative grid of
:class:`RunSpec`\\ s — every registered framework crossed with each
fault class on a bursty trace, plus the fault-free baselines — and a
tabular per-run summary (failed/retried counts, time-to-recover after
each fault) computed from the artifacts' resilience summaries.

The storyline axis (``repro resilience --storylines``) swaps the
single-fault-class grid for the correlated incident templates of
:mod:`repro.faults.storyline`, and doubles every storylined run into a
head-to-head pair: the registry's default recovery-aware loop against
the ``fault_aware=false`` ablation — so the table directly shows what
feeding fault events back into the controllers buys on compound
failures (time-to-recover, worst-window p99, SLO-violation integral,
actions taken mid-incident).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.experiments.artifact import RunOverrides, RunSpec
from repro.experiments.scenarios import ScenarioConfig
from repro.scaling.registry import registered_frameworks
from repro.faults.plan import (
    ClientTimeoutSpec,
    FaultPlan,
    ProvisioningFaultSpec,
    ServerCrashSpec,
    SlowNodeSpec,
    TelemetryDropoutSpec,
)
from repro.faults.storyline import parse_storyline, storyline_names
from repro.faults.summary import recovery_vs_twin

__all__ = [
    "resilience_scenario",
    "resilience_fault_plans",
    "resilience_suite",
    "resilience_rows",
    "RESILIENCE_HEADERS",
    "storyline_suite",
    "storyline_rows",
    "storyline_ttr",
    "STORYLINE_HEADERS",
]


def resilience_scenario(
    load_scale: float = 50.0,
    duration: float = 300.0,
    seed: int = 3,
    trace_name: str = "quickly_varying",
) -> ScenarioConfig:
    """The shared scenario of the suite.

    Bursty trace (the paper's "quickly varying" shape keeps every
    controller busy), and a (1, 2, 2) starting topology so the crash
    faults always have a surviving replica to fail over to.
    """
    return ScenarioConfig(
        name="resilience",
        trace_name=trace_name,
        load_scale=load_scale,
        duration=duration,
        seed=seed,
        topology=(1, 2, 2),
    )


def resilience_fault_plans(duration: float = 300.0) -> dict[str, FaultPlan | None]:
    """One plan per fault class (plus the fault-free baseline).

    Fault windows sit at ~40 % of the run so there is a pre-fault
    baseline for the recovery analysis and room to recover before the
    trace ends.
    """
    at = round(0.4 * duration)
    window = min(60.0, 0.2 * duration)
    return {
        "none": None,
        "slow": FaultPlan((SlowNodeSpec("db", at, duration=window, slowdown=4.0),)),
        "crash": FaultPlan((ServerCrashSpec("db", at),)),
        "prov": FaultPlan(
            (ProvisioningFaultSpec("*", at, duration=window, mode="fail"),)
        ),
        "dropout": FaultPlan((TelemetryDropoutSpec(at, window, tier="*"),)),
        "timeout": FaultPlan(
            (ClientTimeoutSpec(at, window, deadline=2.0, max_retries=2),)
        ),
    }


def resilience_suite(
    load_scale: float = 50.0,
    duration: float = 300.0,
    seed: int = 3,
    frameworks: tuple[str, ...] | None = None,
    trace_name: str = "quickly_varying",
) -> list[RunSpec]:
    """All requested frameworks crossed with every fault class.

    ``frameworks`` defaults to every *registered* framework at call
    time, so plugged-in controllers join the grid automatically.
    Returns the grid in a stable order: frameworks outer, fault
    classes inner ("none" first — the baseline each faulted run is
    compared against).
    """
    if frameworks is None:
        frameworks = registered_frameworks()
    config = resilience_scenario(load_scale, duration, seed, trace_name)
    plans = resilience_fault_plans(duration)
    return [
        RunSpec(fw, config, faults=plan)
        for fw in frameworks
        for plan in plans.values()
    ]


RESILIENCE_HEADERS = [
    "framework", "faults", "requests", "failed", "retried",
    "p95_ms", "recover_s",
]


def _fmt_recovery(artifact) -> str:
    """Per-episode recovery column.

    Single-episode runs render the bare figure; compound plans label
    every episode ``kind@start:seconds`` so a multi-phase incident
    does not collapse into one ambiguous comma list.
    """
    summary = artifact.resilience
    if summary is None or not summary.episodes:
        return "-"
    compound = len(summary.episodes) > 1
    parts = []
    for ep, t in zip(summary.episodes, summary.recovery_s):
        figure = "never" if np.isnan(t) else f"{t:.0f}"
        parts.append(f"{ep.kind}@{ep.start:g}:{figure}" if compound else figure)
    return ",".join(parts)


def resilience_rows(artifacts: list) -> list[tuple]:
    """Report rows (matching :data:`RESILIENCE_HEADERS`) per artifact."""
    rows = []
    for artifact in artifacts:
        plan = artifact.spec.faults
        rows.append(
            (
                artifact.framework,
                plan.describe() if plan is not None else "none",
                artifact.completed,
                artifact.failed,
                artifact.retried,
                round(artifact.tail().p95 * 1000, 1),
                _fmt_recovery(artifact),
            )
        )
    return rows


# ----------------------------------------------------------------------
# storyline axis: compound incidents, aware vs blind head-to-head
# ----------------------------------------------------------------------

def storyline_suite(
    load_scale: float = 50.0,
    duration: float = 300.0,
    seed: int = 3,
    frameworks: tuple[str, ...] | None = None,
    trace_name: str = "quickly_varying",
    storylines: tuple[str, ...] | None = None,
) -> list[RunSpec]:
    """Frameworks crossed with every storyline, aware and blind.

    Per framework: the fault-free baseline, then for each storyline a
    recovery-aware run (registry default) and its ``fault_aware=false``
    ablation twin. Storylines lower with the same window defaults as
    the CLI's ``--storyline NAME`` (incident at 40 % of the run).
    """
    if frameworks is None:
        frameworks = registered_frameworks()
    if storylines is None:
        storylines = storyline_names()
    config = resilience_scenario(load_scale, duration, seed, trace_name)
    plans = [
        parse_storyline(name, run_duration=duration, seed=seed)
        for name in storylines
    ]
    blind = RunOverrides(controller_params=(("fault_aware", False),))
    specs = []
    for fw in frameworks:
        specs.append(RunSpec(fw, config))
        for plan in plans:
            specs.append(RunSpec(fw, config, faults=plan))
            specs.append(RunSpec(fw, config, overrides=blind, faults=plan))
    return specs


STORYLINE_HEADERS = [
    "framework", "storyline", "aware", "requests", "failed", "p95_ms",
    "worst_p99_ms", "slo_viol_s", "actions", "ttr_s", "recover_s",
]


def storyline_ttr(artifact, baseline=None) -> float:
    """Compound time-to-recover of one storylined run, in seconds.

    The tail half is measured against ``baseline`` (the framework's
    fault-free twin of the same scenario) when one is given, so a
    controller whose tail drifts endogenously still scores the
    fault's *additional* damage rather than "never"; without a twin
    it falls back to the in-run pre-fault baseline. Either way the
    figure includes the capacity-restoration component: the incident
    is not over while an ejected replica is still missing. NaN when
    any component is not computable.
    """
    summary = artifact.resilience
    if summary is None or not summary.episodes:
        return float("nan")
    if baseline is None:
        return summary.compound_ttr
    horizon = (
        float(artifact.completion_times.max())
        if artifact.completion_times.size
        else float(artifact.config.duration)
    )
    twin_recovery = tuple(
        recovery_vs_twin(
            artifact.latencies,
            artifact.completion_times,
            baseline.latencies,
            baseline.completion_times,
            ep,
            horizon,
        )
        for ep in summary.episodes
    )
    return dataclasses.replace(summary, recovery_s=twin_recovery).compound_ttr


def _fmt_ttr(artifact, baseline=None) -> str:
    summary = artifact.resilience
    if summary is None or not summary.episodes:
        return "-"
    ttr = storyline_ttr(artifact, baseline)
    return "never" if np.isnan(ttr) else f"{ttr:.0f}"


def storyline_rows(artifacts: list) -> list[tuple]:
    """Report rows (matching :data:`STORYLINE_HEADERS`) per artifact.

    Rows pair each storylined run with its framework's fault-free
    twin from the same artifact list (the suite always includes it):
    the twin anchors the drift-cancelling time-to-recover. The twin
    is the registry-default spec — behaviorally identical for blind
    rows too, since fault awareness only reacts to fault events.
    """
    twins = {
        artifact.framework: artifact
        for artifact in artifacts
        if artifact.spec.faults is None
    }
    rows = []
    for artifact in artifacts:
        plan = artifact.spec.faults
        summary = artifact.resilience
        baseline = twins.get(artifact.framework)
        params = dict(artifact.spec.overrides.controller_params or ())
        aware = bool(params.get("fault_aware", True))
        worst = "-"
        if summary is not None and not np.isnan(summary.worst_p99):
            worst = round(summary.worst_p99 * 1000, 1)
        rows.append(
            (
                artifact.framework,
                plan.title if plan is not None else "none",
                "yes" if aware else "no",
                artifact.completed,
                artifact.failed,
                round(artifact.tail().p95 * 1000, 1),
                worst,
                "-" if summary is None else round(summary.slo_violation_s, 1),
                "-" if summary is None else summary.incident_actions,
                _fmt_ttr(artifact, baseline),
                _fmt_recovery(artifact),
            )
        )
    return rows
