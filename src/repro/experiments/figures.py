"""Per-figure data generation: every table and figure of the paper.

Each ``figure*``/``table1`` function runs the necessary experiments and
returns a small dataclass with the plotted series, a ``render()`` text
view, and a ``to_csv(directory)`` exporter. The benchmark harness under
``benchmarks/`` calls these with reduced scale; EXPERIMENTS.md records
the paper-vs-measured comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import EstimationError, ExperimentError
from repro.experiments.calibration import (
    Calibration,
    ample_capacity,
    app_capacity,
    db_capacity_cpu,
    db_capacity_io,
)
from repro.experiments.artifact import RunArtifact, RunSpec
from repro.experiments.engine import ExperimentEngine, inline_engine
from repro.experiments.report import ascii_chart, format_table, write_csv
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.sweep import SweepResult, concurrency_sweep
from repro.monitoring.percentiles import TailSummary
from repro.ntier.app import APP, DB
from repro.sct.bootstrap import bootstrap_q_lower
from repro.sct.model import SCTEstimate, SCTModel
from repro.sct.tuples import MetricTuple, tuples_from_samples
from repro.workload.mixes import browse_only_mix, read_write_mix
from repro.workload.shapes import TRACE_NAMES, make_trace

__all__ = [
    "figure1",
    "figure3",
    "figure5",
    "figure6",
    "figure7",
    "figure9",
    "figure10",
    "figure11",
    "table1",
    "Fig1Data",
    "Fig3Data",
    "Fig5Data",
    "Fig6Data",
    "Fig7Data",
    "Fig9Data",
    "Fig10Data",
    "Fig11Data",
    "Table1Data",
    "SweepCase",
    "FrameworkTimeline",
]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _timeline_arrays(result: RunArtifact, bin_width: float = 5.0):
    bins = result.timeline(bin_width)
    t = np.array([b.t_start for b in bins])
    rt = np.array([b.mean_rt for b in bins])
    p95 = np.array([b.p95_rt for b in bins])
    tp = np.array([b.throughput for b in bins])
    return t, rt, p95, tp


@dataclass
class FrameworkTimeline:
    """One framework's full Fig. 10-style panel."""

    framework: str
    times: np.ndarray
    mean_rt: np.ndarray  # seconds, base scale
    p95_rt: np.ndarray
    throughput: np.ndarray  # requests/second, base scale
    vm_times: np.ndarray
    vm_counts: np.ndarray
    cpu_series: dict[str, tuple[np.ndarray, np.ndarray]]
    scale_out_times: dict[str, list[float]]
    tail: TailSummary
    vm_seconds: float = 0.0

    @classmethod
    def from_result(cls, result: RunArtifact, bin_width: float = 5.0):
        t, rt, p95, tp = _timeline_arrays(result, bin_width)
        return cls(
            framework=result.framework,
            times=t,
            mean_rt=rt,
            p95_rt=p95,
            throughput=tp,
            vm_times=result.vm_times,
            vm_counts=result.vm_counts,
            cpu_series=result.cpu_series,
            scale_out_times={
                tier: result.actions.scale_out_times(tier) for tier in (APP, DB)
            },
            tail=result.tail(),
            vm_seconds=result.vm_seconds(),
        )


# ----------------------------------------------------------------------
# Fig. 1 — EC2-AutoScaling RT fluctuations on a bursty trace
# ----------------------------------------------------------------------

@dataclass
class Fig1Data:
    """EC2-AutoScaling response-time fluctuation timeline."""

    timeline: FrameworkTimeline

    def render(self) -> str:
        tl = self.timeline
        chart = ascii_chart(
            tl.times, tl.p95_rt * 1000, label="Fig.1  p95 response time [ms] vs time [s]"
        )
        vms = ascii_chart(
            tl.vm_times, tl.vm_counts.astype(float), height=8,
            label="Fig.1  total number of VMs vs time [s]",
        )
        return (
            f"{chart}\n\n{vms}\n\n"
            f"tail: p95={tl.tail.p95 * 1000:.0f}ms p99={tl.tail.p99 * 1000:.0f}ms; "
            f"scale-outs app@{[round(t) for t in tl.scale_out_times[APP]]} "
            f"db@{[round(t) for t in tl.scale_out_times[DB]]}"
        )

    def to_csv(self, directory: str) -> list[str]:
        tl = self.timeline
        return [
            write_csv(
                f"{directory}/fig1_rt.csv",
                ["t_s", "mean_rt_ms", "p95_rt_ms", "throughput_rps"],
                zip(tl.times, tl.mean_rt * 1000, tl.p95_rt * 1000, tl.throughput),
            ),
            write_csv(
                f"{directory}/fig1_vms.csv",
                ["t_s", "vms"],
                zip(tl.vm_times, tl.vm_counts),
            ),
        ]


def figure1(
    load_scale: float = 50.0, duration: float = 700.0, seed: int = 3,
    engine: ExperimentEngine | None = None,
) -> Fig1Data:
    """Fig. 1: large RT fluctuations of hardware-only scaling."""
    config = ScenarioConfig(
        name="fig1", trace_name="large_variations",
        load_scale=load_scale, duration=duration, seed=seed,
    )
    result = inline_engine(engine).run(RunSpec("ec2", config))
    return Fig1Data(timeline=FrameworkTimeline.from_result(result))


# ----------------------------------------------------------------------
# Fig. 3 / Fig. 7 — controlled concurrency sweeps
# ----------------------------------------------------------------------

@dataclass
class SweepCase:
    """One sweep panel with its extracted optimal concurrency."""

    label: str
    result: SweepResult
    q_lower: int

    def rows(self):
        return [
            (
                p.concurrency,
                round(p.measured_concurrency, 1),
                round(p.throughput, 1),
                round(p.response_time * 1000, 2),
                round(p.utilization, 3),
            )
            for p in self.result.points
        ]


_SWEEP_HEADERS = ["level", "measured_Q", "throughput_rps", "rt_ms", "util"]


def _sweep_case(
    label: str,
    target: str,
    capacities: dict,
    mix,
    levels: list[int],
    duration: float,
    dataset_scale: float = 1.0,
    seed: int = 7,
    engine: ExperimentEngine | None = None,
) -> SweepCase:
    result = concurrency_sweep(
        target, capacities, mix, levels, duration=duration,
        dataset_scale=dataset_scale, seed=seed, engine=engine,
    )
    return SweepCase(label=label, result=result, q_lower=result.q_lower())


@dataclass
class Fig3Data:
    """Throughput/RT vs concurrency for Tomcat under three conditions."""

    cases: list[SweepCase]

    def render(self) -> str:
        parts = []
        for case in self.cases:
            parts.append(
                f"Fig.3 [{case.label}] Q_lower = {case.q_lower}\n"
                + format_table(_SWEEP_HEADERS, case.rows())
            )
        return "\n\n".join(parts)

    def to_csv(self, directory: str) -> list[str]:
        paths = []
        for i, case in enumerate(self.cases):
            paths.append(
                write_csv(
                    f"{directory}/fig3_{chr(ord('a') + i)}.csv",
                    _SWEEP_HEADERS,
                    case.rows(),
                )
            )
        return paths


def figure3(
    duration: float = 20.0, seed: int = 7,
    engine: ExperimentEngine | None = None,
) -> Fig3Data:
    """Fig. 3: Tomcat's optimal concurrency under 1-core / 2-core /
    2-core-with-doubled-dataset conditions."""
    cal = Calibration()
    mix = browse_only_mix(cal.base_demands)
    levels = [4, 6, 8, 10, 12, 15, 18, 20, 25, 30, 40, 50, 60, 80, 100]
    cases = [
        _sweep_case(
            "Tomcat 1-core", APP,
            {"web": ample_capacity(), "app": app_capacity(1.0), "db": ample_capacity()},
            mix, levels, duration, seed=seed, engine=engine,
        ),
        _sweep_case(
            "Tomcat 2-core", APP,
            {"web": ample_capacity(), "app": app_capacity(2.0), "db": ample_capacity()},
            mix, levels, duration, seed=seed, engine=engine,
        ),
        _sweep_case(
            "Tomcat 2-core, 2x dataset", APP,
            {
                "web": ample_capacity(),
                "app": app_capacity(2.0, dataset_scale=2.0),
                "db": ample_capacity(),
            },
            mix, levels, duration, dataset_scale=2.0, seed=seed, engine=engine,
        ),
    ]
    return Fig3Data(cases=cases)


@dataclass
class Fig7Data:
    """The six Q_lower-shift panels of Fig. 7."""

    cases: dict[str, SweepCase]

    def shifts(self) -> dict[str, tuple[int, int]]:
        """The three (before, after) Q_lower pairs the paper reports."""
        return {
            "vertical_scaling": (
                self.cases["db_1core"].q_lower,
                self.cases["db_2core"].q_lower,
            ),
            "dataset_size": (
                self.cases["tomcat_orig"].q_lower,
                self.cases["tomcat_2x"].q_lower,
            ),
            "workload_type": (
                self.cases["db_cpu"].q_lower,
                self.cases["db_io"].q_lower,
            ),
        }

    def render(self) -> str:
        parts = []
        for key, case in self.cases.items():
            parts.append(
                f"Fig.7 [{key}: {case.label}] Q_lower = {case.q_lower}\n"
                + format_table(_SWEEP_HEADERS, case.rows())
            )
        shifts = self.shifts()
        parts.append(
            "Q_lower shifts: "
            + ", ".join(f"{k}: {a} -> {b}" for k, (a, b) in shifts.items())
        )
        return "\n\n".join(parts)

    def to_csv(self, directory: str) -> list[str]:
        return [
            write_csv(f"{directory}/fig7_{key}.csv", _SWEEP_HEADERS, case.rows())
            for key, case in self.cases.items()
        ]


def figure7(
    duration: float = 20.0, seed: int = 7,
    engine: ExperimentEngine | None = None,
) -> Fig7Data:
    """Fig. 7: Q_lower shifts under vertical scaling, dataset growth,
    and workload-type change."""
    cal = Calibration()
    mix = browse_only_mix(cal.base_demands)
    mix_io = read_write_mix(cal.base_demands)
    db_levels = [2, 4, 6, 8, 10, 12, 15, 18, 20, 22, 25, 30, 40, 60, 80]
    io_levels = [1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 40]
    app_levels = [4, 6, 8, 10, 12, 15, 18, 20, 22, 25, 28, 32, 40, 50, 60, 80]
    ample = ample_capacity()
    cases = {
        "db_1core": _sweep_case(
            "MySQL 1-core (browse)", DB,
            {"web": ample, "app": ample, "db": db_capacity_cpu(1.0)},
            mix, db_levels, duration, seed=seed, engine=engine,
        ),
        "db_2core": _sweep_case(
            "MySQL 2-core (browse)", DB,
            {"web": ample, "app": ample, "db": db_capacity_cpu(2.0)},
            mix, db_levels, duration, seed=seed, engine=engine,
        ),
        "tomcat_orig": _sweep_case(
            "Tomcat original dataset", APP,
            {"web": ample, "app": app_capacity(1.0), "db": ample},
            mix, app_levels, duration, seed=seed, engine=engine,
        ),
        "tomcat_2x": _sweep_case(
            "Tomcat enlarged dataset", APP,
            {"web": ample, "app": app_capacity(1.0, 2.0), "db": ample},
            mix, app_levels, duration, dataset_scale=2.0, seed=seed, engine=engine,
        ),
        "db_cpu": _sweep_case(
            "MySQL CPU-intensive", DB,
            {"web": ample, "app": ample, "db": db_capacity_cpu(1.0, 1.0 / 15.0)},
            mix, db_levels, duration, seed=seed, engine=engine,
        ),
        "db_io": _sweep_case(
            "MySQL I/O-intensive", DB,
            {"web": ample, "app": ample, "db": db_capacity_io(1.0)},
            mix_io, io_levels, duration, seed=seed, engine=engine,
        ),
    }
    return Fig7Data(cases=cases)


# ----------------------------------------------------------------------
# Fig. 5 / Fig. 6 — fine-grained monitoring and the SCT scatter
# ----------------------------------------------------------------------

@dataclass
class Fig5Data:
    """50 ms-granularity MySQL metrics around a scale-out event."""

    server: str
    scale_time: float
    times: np.ndarray
    concurrency: np.ndarray
    throughput: np.ndarray  # base-scale req/s
    response_time: np.ndarray  # base-scale seconds (NaN when idle)

    def render(self) -> str:
        a = ascii_chart(self.times, self.concurrency, height=8,
                        label=f"Fig.5a {self.server} concurrency (scale-out at {self.scale_time:.0f}s)")
        b = ascii_chart(self.times, self.throughput, height=8,
                        label=f"Fig.5b {self.server} throughput [req/s]")
        c = ascii_chart(self.times, self.response_time * 1000, height=8,
                        label=f"Fig.5c {self.server} response time [ms]")
        return f"{a}\n\n{b}\n\n{c}"

    def to_csv(self, directory: str) -> list[str]:
        return [
            write_csv(
                f"{directory}/fig5.csv",
                ["t_s", "concurrency", "throughput_rps", "rt_ms"],
                zip(
                    self.times,
                    self.concurrency,
                    self.throughput,
                    self.response_time * 1000,
                ),
            )
        ]


@dataclass
class Fig6Data:
    """The SCT scatter (TP vs Q, RT vs Q) and the estimated range."""

    server: str
    tuples: list[MetricTuple]
    estimate: SCTEstimate

    def scatter_rows(self):
        return [
            (round(t.q, 2), round(t.tp, 1), round(t.rt * 1000, 2) if not math.isnan(t.rt) else float("nan"))
            for t in self.tuples
        ]

    def render(self) -> str:
        qs = [t.q for t in self.tuples]
        tps = [t.tp for t in self.tuples]
        rts = [t.rt * 1000 if not math.isnan(t.rt) else math.nan for t in self.tuples]
        a = ascii_chart(qs, tps, label=f"Fig.6a {self.server} throughput vs concurrency")
        b = ascii_chart(qs, rts, label=f"Fig.6b {self.server} response time [ms] vs concurrency")
        lines = [a, "", b, "", f"SCT estimate: {self.estimate.describe()}"]
        try:
            ci = bootstrap_q_lower(self.tuples, SCTModel(bucket_width=2),
                                   n_resamples=100)
        except EstimationError:
            pass  # the window is too thin for an interval; omit the line
        else:
            lines.append(f"bootstrap 90% CI: {ci.describe()}")
        return "\n".join(lines)

    def to_csv(self, directory: str) -> list[str]:
        return [
            write_csv(
                f"{directory}/fig6_scatter.csv",
                ["concurrency", "throughput_rps", "rt_ms"],
                self.scatter_rows(),
            )
        ]


def _pick_db_server(result: RunArtifact) -> str:
    candidates = [n for n in result.monitored_servers if n.startswith("db")]
    if not candidates:
        raise ExperimentError("no monitored DB server in the run")
    return sorted(candidates)[0]


def figure5(
    load_scale: float = 50.0, duration: float = 300.0, seed: int = 3,
    window: float = 20.0,
    engine: ExperimentEngine | None = None,
) -> Fig5Data:
    """Fig. 5: fine-grained MySQL monitoring right after the first
    app-tier scale-out under hardware-only scaling."""
    config = ScenarioConfig(
        name="fig5", trace_name="large_variations",
        load_scale=load_scale, duration=duration, seed=seed,
    )
    result = inline_engine(engine).run(RunSpec("ec2", config))
    app_outs = result.actions.scale_out_times(APP)
    if not app_outs:
        raise ExperimentError("no app scale-out occurred; lengthen the run")
    t0 = app_outs[0]
    server = _pick_db_server(result)
    fine = result.fine_series[server]
    mask = (fine.t_end >= t0 - window * 0.25) & (fine.t_end <= t0 + window)
    if not mask.any():
        raise ExperimentError("no fine-grained samples in the requested window")
    scale = config.rt_scale
    return Fig5Data(
        server=server,
        scale_time=t0,
        times=fine.t_end[mask],
        concurrency=fine.concurrency[mask],
        throughput=fine.throughput[mask] * scale,
        response_time=fine.response_time[mask] / scale,
    )


def figure6(
    q_max: int = 80,
    q_step: int = 2,
    dwell: float = 3.0,
    seed: int = 7,
) -> Fig6Data:
    """Fig. 6: the concurrency-throughput / concurrency-RT scatter of a
    bottleneck MySQL, with the SCT rational range.

    The paper's scatter comes from a 12-minute production run in which
    MySQL's concurrency organically sweeps its whole range. We
    reproduce the dwell by ramping the DB connection-pool cap from
    ``q_step`` to ``q_max`` over one continuous run at base scale
    (true 50 ms intervals, high completion counts) while a saturated
    closed-loop population keeps the cap pinned — the same
    methodology the paper uses to control per-server concurrency.
    """
    from repro.experiments.sweep import cap_ramp_scatter

    cal = Calibration()
    mix = browse_only_mix(cal.base_demands)
    samples, server_name = cap_ramp_scatter(
        db_capacity_cpu(1.0), mix, q_max=q_max, q_step=q_step, dwell=dwell,
        seed=seed,
    )
    tuples = tuples_from_samples(samples)
    estimate = SCTModel(bucket_width=q_step).estimate(tuples)
    return Fig6Data(server=server_name, tuples=tuples, estimate=estimate)


# ----------------------------------------------------------------------
# Fig. 9 — the six traces
# ----------------------------------------------------------------------

@dataclass
class Fig9Data:
    """The six bursty workload traces."""

    traces: dict[str, tuple[np.ndarray, np.ndarray]]

    def render(self) -> str:
        parts = []
        for name, (t, u) in self.traces.items():
            parts.append(ascii_chart(t, u, height=8, label=f"Fig.9 {name} [users]"))
        return "\n\n".join(parts)

    def to_csv(self, directory: str) -> list[str]:
        paths = []
        for name, (t, u) in self.traces.items():
            paths.append(
                write_csv(f"{directory}/fig9_{name}.csv", ["t_s", "users"], zip(t, u))
            )
        return paths


def figure9(max_users: float = 7500.0, duration: float = 700.0) -> Fig9Data:
    """Fig. 9: the six realistic workload trace shapes."""
    traces = {}
    for name in TRACE_NAMES:
        trace = make_trace(name, max_users, duration)
        traces[name] = trace.sample(5.0)
    return Fig9Data(traces=traces)


# ----------------------------------------------------------------------
# Fig. 10 / Fig. 11 — framework comparisons over a full run
# ----------------------------------------------------------------------

@dataclass
class Fig10Data:
    """EC2-AutoScaling vs ConScale on the Large Variations trace."""

    ec2: FrameworkTimeline
    conscale: FrameworkTimeline

    def render(self) -> str:
        rows = []
        for tl in (self.ec2, self.conscale):
            rows.append(
                (
                    tl.framework,
                    round(tl.tail.p95 * 1000, 1),
                    round(tl.tail.p99 * 1000, 1),
                    round(float(np.nanmax(tl.p95_rt)) * 1000, 1),
                    int(tl.vm_counts.max()),
                    round(tl.vm_seconds, 0),
                )
            )
        table = format_table(
            ["framework", "p95_ms", "p99_ms", "worst_bin_p95_ms", "max_vms",
             "vm_seconds"],
            rows,
        )
        charts = [
            ascii_chart(tl.times, tl.p95_rt * 1000, height=10,
                        label=f"Fig.10 {tl.framework}: p95 RT [ms] vs time [s]")
            for tl in (self.ec2, self.conscale)
        ]
        return table + "\n\n" + "\n\n".join(charts)

    def to_csv(self, directory: str) -> list[str]:
        paths = []
        for tl in (self.ec2, self.conscale):
            paths.append(
                write_csv(
                    f"{directory}/fig10_{tl.framework}.csv",
                    ["t_s", "mean_rt_ms", "p95_rt_ms", "throughput_rps"],
                    zip(tl.times, tl.mean_rt * 1000, tl.p95_rt * 1000, tl.throughput),
                )
            )
            paths.append(
                write_csv(
                    f"{directory}/fig10_{tl.framework}_vms.csv",
                    ["t_s", "vms"],
                    zip(tl.vm_times, tl.vm_counts),
                )
            )
        return paths


def figure10(
    load_scale: float = 50.0, duration: float = 700.0, seed: int = 3,
    engine: ExperimentEngine | None = None,
) -> Fig10Data:
    """Fig. 10: performance fluctuations of EC2-AutoScaling vs the
    stability of ConScale under the same bursty trace."""
    config = ScenarioConfig(
        name="fig10", trace_name="large_variations",
        load_scale=load_scale, duration=duration, seed=seed,
    )
    ec2, conscale = inline_engine(engine).run_many(
        [RunSpec("ec2", config), RunSpec("conscale", config)]
    )
    return Fig10Data(
        ec2=FrameworkTimeline.from_result(ec2),
        conscale=FrameworkTimeline.from_result(conscale),
    )


@dataclass
class Fig11Data:
    """DCM (stale offline training) vs ConScale after a system-state
    change (dataset reduced relative to DCM's training dataset)."""

    dcm: FrameworkTimeline
    conscale: FrameworkTimeline
    dcm_trained_app_threads: int
    conscale_app_estimates: list[tuple[float, int]]

    def final_conscale_app_threads(self) -> int | None:
        """ConScale's last actionable app-tier optimum (None if none)."""
        if not self.conscale_app_estimates:
            return None
        return self.conscale_app_estimates[-1][1]

    def render(self) -> str:
        rows = [
            (
                tl.framework,
                round(tl.tail.p95 * 1000, 1),
                round(tl.tail.p99 * 1000, 1),
                round(float(np.nanmax(tl.p95_rt)) * 1000, 1),
            )
            for tl in (self.dcm, self.conscale)
        ]
        table = format_table(["framework", "p95_ms", "p99_ms", "worst_bin_p95_ms"], rows)
        est = self.final_conscale_app_threads()
        return (
            f"{table}\n\nDCM trained Tomcat optimum (stale): "
            f"{self.dcm_trained_app_threads}; ConScale online estimate: {est}"
        )

    def to_csv(self, directory: str) -> list[str]:
        paths = []
        for tl in (self.dcm, self.conscale):
            paths.append(
                write_csv(
                    f"{directory}/fig11_{tl.framework}.csv",
                    ["t_s", "mean_rt_ms", "p95_rt_ms", "throughput_rps"],
                    zip(tl.times, tl.mean_rt * 1000, tl.p95_rt * 1000, tl.throughput),
                )
            )
        paths.append(
            write_csv(
                f"{directory}/fig11_conscale_estimates.csv",
                ["t_s", "app_optimal"],
                self.conscale_app_estimates,
            )
        )
        return paths


def figure11(
    load_scale: float = 50.0, duration: float = 700.0, seed: int = 3,
    runtime_dataset_scale: float = 0.5,
    engine: ExperimentEngine | None = None,
) -> Fig11Data:
    """Fig. 11: the system state (dataset size) changes after DCM's
    offline training; ConScale re-estimates online, DCM cannot."""
    config = ScenarioConfig(
        name="fig11", trace_name="large_variations",
        load_scale=load_scale, duration=duration, seed=seed,
        calibration=Calibration(dataset_scale=runtime_dataset_scale),
    )
    # DCM's profile is trained on the ORIGINAL dataset (the default
    # calibration) — the runtime mismatch is the whole experiment.
    dcm, conscale = inline_engine(engine).run_many(
        [RunSpec("dcm", config), RunSpec("conscale", config)]
    )
    trained = next(
        (a.value for a in dcm.actions.of_kind("soft_app_threads")), 0
    )
    estimates = [
        (e.time, e.optimal)
        for e in conscale.estimates.get(APP, [])
        if e.actionable
    ]
    return Fig11Data(
        dcm=FrameworkTimeline.from_result(dcm),
        conscale=FrameworkTimeline.from_result(conscale),
        dcm_trained_app_threads=int(trained or 0),
        conscale_app_estimates=estimates,
    )


# ----------------------------------------------------------------------
# Table I — tail latency across the six traces
# ----------------------------------------------------------------------

@dataclass
class Table1Data:
    """95th/99th-percentile RT, EC2-AutoScaling vs ConScale, six traces."""

    results: dict[str, dict[str, TailSummary]] = field(default_factory=dict)

    def rows(self):
        out = []
        for trace, by_fw in self.results.items():
            ec2 = by_fw["ec2"]
            cs = by_fw["conscale"]
            out.append(
                (
                    trace,
                    round(ec2.p95 * 1000, 1),
                    round(cs.p95 * 1000, 1),
                    round(ec2.p99 * 1000, 1),
                    round(cs.p99 * 1000, 1),
                    round(ec2.p99 / cs.p99, 2),
                )
            )
        return out

    def render(self) -> str:
        return "Table I — tail response time [ms]\n" + format_table(
            ["trace", "EC2 p95", "ConScale p95", "EC2 p99", "ConScale p99", "p99 gain"],
            self.rows(),
        )

    def to_csv(self, directory: str) -> list[str]:
        return [
            write_csv(
                f"{directory}/table1.csv",
                ["trace", "ec2_p95_ms", "conscale_p95_ms", "ec2_p99_ms",
                 "conscale_p99_ms", "p99_gain"],
                self.rows(),
            )
        ]


def table1(
    load_scale: float = 50.0,
    duration: float = 700.0,
    seed: int = 3,
    traces: tuple[str, ...] = TRACE_NAMES,
    frameworks: tuple[str, ...] = ("ec2", "conscale"),
    engine: ExperimentEngine | None = None,
) -> Table1Data:
    """Table I: tail-latency comparison across the six bursty traces.

    The full grid (``len(traces) * len(frameworks)`` specs) is handed
    to the engine in one batch, so its execution backend parallelises
    across both axes — ``--jobs N`` on one host, or ``--backend
    file-queue`` sharded over ``repro worker`` hosts — and cached
    cells are skipped individually.
    """
    specs = []
    for trace in traces:
        config = ScenarioConfig(
            name=f"table1-{trace}", trace_name=trace,
            load_scale=load_scale, duration=duration, seed=seed,
        )
        specs.extend(RunSpec(fw, config) for fw in frameworks)
    artifacts = inline_engine(engine).run_many(specs)
    data = Table1Data()
    for spec, artifact in zip(specs, artifacts):
        by_fw = data.results.setdefault(spec.config.trace_name, {})
        by_fw[spec.framework] = artifact.tail()
    return data
