"""Ablation studies on the design choices DESIGN.md calls out.

Four knobs are ablated:

* **monitoring interval** — the paper argues 50 ms is a sweet spot:
  too short makes per-interval throughput Poisson-noisy, too long
  blurs the concurrency variation. :func:`sct_interval_ablation`
  measures estimate error across intervals.
* **collection window** — how much scatter the SCT model needs before
  its estimate stabilises (:func:`sct_window_ablation`).
* **plateau tolerance** — the delta that defines the rational range
  (:func:`sct_tolerance_ablation`).
* **controller parameters** — ConScale's actuation headroom and the
  load-balancing policy (:func:`headroom_ablation`,
  :func:`balancer_ablation`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EstimationError
from repro.experiments.artifact import RunOverrides, RunSpec
from repro.experiments.calibration import Calibration, db_capacity_cpu
from repro.experiments.engine import ExperimentEngine, inline_engine
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.sweep import cap_ramp_scatter
from repro.sct.model import SCTModel
from repro.sct.scatter import Scatter
from repro.workload.mixes import browse_only_mix

__all__ = [
    "AblationPoint",
    "sct_interval_ablation",
    "sct_window_ablation",
    "sct_tolerance_ablation",
    "headroom_ablation",
    "balancer_ablation",
]


@dataclass(frozen=True, slots=True)
class AblationPoint:
    """One setting of the ablated knob and its outcome metric(s)."""

    knob: float | str
    q_lower: int | None = None
    q_upper: int | None = None
    p99_ms: float | None = None
    note: str = ""


def _scatter(interval: float, dwell: float, q_max: int, seed: int):
    cal = Calibration()
    mix = browse_only_mix(cal.base_demands)
    samples, _ = cap_ramp_scatter(
        db_capacity_cpu(1.0), mix, q_max=q_max, q_step=2, dwell=dwell,
        fine_interval=interval, seed=seed,
    )
    return Scatter.from_window(samples)


def sct_interval_ablation(
    intervals: tuple[float, ...] = (0.010, 0.025, 0.050, 0.200, 1.000),
    dwell: float = 3.0,
    q_max: int = 60,
    seed: int = 7,
) -> list[AblationPoint]:
    """Estimate quality versus the monitoring interval.

    The true optimum of the swept server is its saturation concurrency
    (10); deviations and estimation failures expose intervals that are
    too coarse (few samples) or too fine (counting noise).
    """
    out = []
    for interval in intervals:
        scatter = _scatter(interval, dwell, q_max, seed)
        try:
            est = SCTModel(bucket_width=2).estimate(scatter)
            out.append(
                AblationPoint(knob=interval, q_lower=est.q_lower, q_upper=est.q_upper)
            )
        except EstimationError as exc:
            out.append(AblationPoint(knob=interval, note=f"failed: {exc}"))
    return out


def sct_window_ablation(
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0),
    dwell: float = 3.0,
    q_max: int = 60,
    seed: int = 7,
) -> list[AblationPoint]:
    """Estimate quality versus how much of the scatter has been seen.

    Truncating the cap-ramp run emulates shorter collection windows:
    early truncations have not yet observed the descending stage and
    must be reported as unsaturated rather than producing a bogus
    optimum.
    """
    scatter = _scatter(0.050, dwell, q_max, seed)
    out = []
    for fraction in fractions:
        subset = scatter[: max(1, int(len(scatter) * fraction))]
        try:
            est = SCTModel(bucket_width=2).estimate(subset)
            note = "" if est.saturation_observed else "unsaturated"
            out.append(
                AblationPoint(
                    knob=fraction, q_lower=est.q_lower, q_upper=est.q_upper, note=note
                )
            )
        except EstimationError as exc:
            out.append(AblationPoint(knob=fraction, note=f"failed: {exc}"))
    return out


def sct_tolerance_ablation(
    tolerances: tuple[float, ...] = (0.01, 0.03, 0.05, 0.10, 0.20),
    dwell: float = 3.0,
    q_max: int = 60,
    seed: int = 7,
) -> list[AblationPoint]:
    """Rational-range width versus the plateau tolerance delta."""
    scatter = _scatter(0.050, dwell, q_max, seed)
    out = []
    for tol in tolerances:
        est = SCTModel(tolerance=tol, bucket_width=2).estimate(scatter)
        out.append(AblationPoint(knob=tol, q_lower=est.q_lower, q_upper=est.q_upper))
    return out


def headroom_ablation(
    headrooms: tuple[float, ...] = (1.0, 1.15, 1.4),
    load_scale: float = 50.0,
    duration: float = 400.0,
    seed: int = 3,
    engine: ExperimentEngine | None = None,
) -> list[AblationPoint]:
    """ConScale tail latency versus the actuation headroom.

    Headroom 1.0 actuates exactly at the estimated Q_lower (risking
    threshold starvation of the hardware scaler); large headroom gives
    back part of the over-allocation penalty ConScale exists to avoid.

    The headroom rides in the spec's :class:`RunOverrides` (rather than
    any controller monkey-patching), so each setting is a distinct,
    cacheable run spec that the engine can ship to a pool worker and
    cache by content digest.
    """
    specs = []
    for headroom in headrooms:
        config = ScenarioConfig(
            name=f"headroom-{headroom}", trace_name="large_variations",
            load_scale=load_scale, duration=duration, seed=seed,
        )
        specs.append(
            RunSpec(
                "conscale", config,
                RunOverrides.from_params({"headroom": float(headroom)}),
            )
        )
    artifacts = inline_engine(engine).run_many(specs)
    return [
        AblationPoint(knob=headroom, p99_ms=artifact.tail().p99 * 1000.0)
        for headroom, artifact in zip(headrooms, artifacts)
    ]


def balancer_ablation(
    policies: tuple[str, ...] = ("leastconn", "roundrobin"),
    load_scale: float = 50.0,
    duration: float = 400.0,
    seed: int = 3,
    engine: ExperimentEngine | None = None,
) -> list[AblationPoint]:
    """EC2 baseline tail latency under the two HAProxy policies."""
    specs = []
    for policy in policies:
        config = ScenarioConfig(
            name=f"balancer-{policy}", trace_name="large_variations",
            load_scale=load_scale, duration=duration, seed=seed,
            balancing=policy,
        )
        specs.append(RunSpec("ec2", config))
    artifacts = inline_engine(engine).run_many(specs)
    return [
        AblationPoint(knob=policy, p99_ms=artifact.tail().p99 * 1000.0)
        for policy, artifact in zip(policies, artifacts)
    ]
