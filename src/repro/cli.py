"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one scenario under one framework, print the tail summary
  (``--param key=value`` sets registered controller parameters);
* ``diff`` — compare the decision traces of two cached runs of the
  same scenario (e.g. two ConScale headroom settings): first
  divergence, per-tier cap-decision deltas, tail-latency deltas;
* ``compare`` — every registered framework on one trace (JSON/HTML
  export);
* ``controllers`` — list the registered controllers with their
  parameter schemas and decision-event kinds (``--json`` for machines);
* ``resilience`` — the fault-injection suite: every framework crossed
  with each fault class on a bursty trace, with failed/retried counts
  and per-fault recovery times; ``--storylines`` swaps the grid for
  the correlated incident templates and pairs every storylined run
  with its fault-blind (``fault_aware=false``) ablation twin;
* ``trace export`` — dump a cached run's decision trace
  (``--jsonl`` for line-delimited JSON with a meta header line);
* ``sweep`` — a concurrency sweep against one tier;
* ``table1`` — regenerate Table I;
* ``figure`` — regenerate one figure by number (1, 3, 5, 6, 7, 9, 10, 11);
* ``predict`` — analytical (MVA) closed-loop throughput/latency curve;
* ``traces`` — list the six built-in trace shapes;
* ``lint`` — the repro-lint determinism/invariant static-analysis pass:
  every rule, no flags (exit 0 clean, 1 on any finding, 2 on bad
  input).

``run --mode {discrete,hybrid}`` selects the simulation mode: classic
per-request discrete events, or hybrid, where the governor
(:mod:`repro.sim.governor`) runs quiet stretches of the trace on the
aggregate fluid integrator (:mod:`repro.sim.fluid`). ``--arrivals
closed`` swaps the open trace-driven stream for a closed population of
synchronous users (discrete mode only); ``--demand-dist lognormal``
draws heavy-tailed service demands at the calibrated mean/CV.

``run --storyline NAME[:TIER[:T0[:DUR]]]`` injects one of the named
correlated-incident templates (see ``repro.faults.storyline``:
az-outage, brownout, flapping-node, cascading-retry-storm) instead of
a hand-written ``--faults`` plan; the storyline lowers to an ordinary
fault plan riding the run spec, so storylined runs stay cached,
diffable (``diff --storyline-a/-b``) and byte-reproducible.

``run --check {race,fluid}`` runs the scenario against a twin (see
:mod:`repro.experiments.twincheck`) and fails (exit 2) on divergence:
``race`` replays it under a permuted same-timestamp tie-break order and
demands every observable match — the dynamic complement of ``lint`` —
while ``fluid`` runs a hybrid scenario against its discrete twin and
demands equivalence within tolerance. ``run --profile`` wraps an
(uncached) run in cProfile and writes a pstats dump next to the
artifact.

Figures print their series and write CSVs under ``--results``.

Experiment-running commands (``run``, ``compare``, ``resilience``,
``trace export``, ``sweep``, ``table1``, ``figure``) go through the
experiment engine: results are cached under ``results/cache/`` by spec
content digest (``--no-cache`` forces re-execution, ``--cached-only``
refuses to execute), and ``--jobs N`` runs the cache misses across up
to N worker processes.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.control.events import RECOVERY_KINDS
from repro.errors import ConfigurationError, ReproError
from repro.experiments import figures as figures_mod
from repro.experiments.artifact import RunOverrides, RunSpec
from repro.experiments.diff import diff_artifacts
from repro.experiments.calibration import (
    Calibration,
    ample_capacity,
    app_capacity,
    db_capacity_cpu,
    db_capacity_io,
)
from repro.experiments.engine import DEFAULT_CACHE_DIR, ExperimentEngine, RunEvent
from repro.experiments.report import ensure_results_dir, format_table
from repro.experiments.resilience import (
    RESILIENCE_HEADERS,
    STORYLINE_HEADERS,
    resilience_rows,
    resilience_suite,
    storyline_rows,
    storyline_suite,
)
from repro.experiments.scenarios import ARRIVAL_MODELS, SIM_MODES, ScenarioConfig
from repro.ntier.demand import DEMAND_DISTRIBUTIONS
from repro.scaling.registry import (
    controller_specs,
    parse_cli_params,
    registered_frameworks,
)
from repro.experiments.sweep import concurrency_sweep
from repro.experiments.twincheck import CHECKS, run_twin_check
from repro.faults.plan import FaultPlan, parse_faults
from repro.faults.storyline import parse_storyline, storyline_names
from repro.workload.mixes import browse_only_mix, read_write_mix
from repro.workload.shapes import TRACE_NAMES, make_trace

__all__ = ["main"]


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default="large_variations",
        help=f"one of {', '.join(TRACE_NAMES)}, or a path to a "
        "t_s,users CSV file to replay",
    )
    parser.add_argument("--scale", type=float, default=50.0,
                        help="load scale (1 = paper scale, slower)")
    parser.add_argument("--duration", type=float, default=700.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--topology", default="1,1,1", metavar="W,A,D",
        help="starting replica counts web,app,db (crash faults need "
        ">= 2 replicas in the target tier)",
    )
    parser.add_argument(
        "--mode", choices=SIM_MODES, default="discrete",
        help="simulation mode: per-request discrete events (default), "
        "or hybrid, where a governor runs quiet stretches of the trace "
        "on the aggregate fluid integrator",
    )
    parser.add_argument(
        "--arrivals", choices=ARRIVAL_MODELS, default="open",
        help="arrival model: open trace-driven stream (default) or a "
        "closed population of synchronous users sized from the trace "
        "peak (discrete mode only)",
    )
    parser.add_argument(
        "--demand-dist", choices=DEMAND_DISTRIBUTIONS, default="gamma",
        help="per-request service-demand distribution (lognormal gives "
        "a heavy tail at the same mean and CV)",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N experiments in parallel worker processes",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (always re-run)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--cached-only", action="store_true",
        help="never execute: fail (exit 2) if any run is not cached",
    )


def _print_event(event: RunEvent) -> None:
    tag = f"[{event.index + 1}/{event.total}]"
    if event.kind == "start":
        print(f"{tag} running {event.label} ...", file=sys.stderr)
    elif event.kind == "hit":
        print(f"{tag} cached  {event.label}", file=sys.stderr)
    elif event.kind == "done":
        print(f"{tag} done    {event.label} ({event.seconds:.1f}s)",
              file=sys.stderr)


def _engine(args: argparse.Namespace) -> ExperimentEngine:
    return ExperimentEngine(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", DEFAULT_CACHE_DIR),
        use_cache=not getattr(args, "no_cache", False),
        progress=_print_event,
        require_cached=getattr(args, "cached_only", False),
    )


def _report_cache(engine: ExperimentEngine) -> None:
    if engine.cache is not None:
        print(f"cache: {engine.stats.describe()}")


def _parse_topology(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or not all(p.isdigit() for p in parts):
        raise ConfigurationError(
            f"--topology must be three integers W,A,D, got {text!r}"
        )
    return (int(parts[0]), int(parts[1]), int(parts[2]))


def _parse_levels(text: str) -> list[int]:
    try:
        return sorted({int(x) for x in text.split(",")})
    except ValueError:
        raise ConfigurationError(
            f"--levels must be comma-separated integers, got {text!r}"
        ) from None


def _config(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        name="cli", trace_name=args.trace, load_scale=args.scale,
        duration=args.duration, seed=args.seed,
        topology=_parse_topology(getattr(args, "topology", "1,1,1")),
        mode=getattr(args, "mode", "discrete"),
        arrivals=getattr(args, "arrivals", "open"),
        demand_distribution=getattr(args, "demand_dist", "gamma"),
    )


def _tail_row(framework: str, result) -> tuple:
    tail = result.tail()
    return (
        framework,
        result.completed,
        result.failed,
        result.retried,
        round(tail.p50 * 1000, 1),
        round(tail.p95 * 1000, 1),
        round(tail.p99 * 1000, 1),
        int(result.vm_counts.max()),
    )


_TAIL_HEADERS = [
    "framework", "requests", "failed", "retried",
    "p50_ms", "p95_ms", "p99_ms", "max_vms",
]


def _run_overrides(framework: str, params: list[str] | None) -> RunOverrides:
    """Controller params from ``--param NAME=VALUE`` (validated against
    the framework's registered schema)."""
    return RunOverrides.from_params(
        parse_cli_params(framework, params or []) or None
    )


def _fault_plan(
    faults: str | None,
    storyline: str | None,
    args: argparse.Namespace,
    suffix: str = "",
) -> FaultPlan | None:
    """Lower ``--faults`` / ``--storyline`` (mutually exclusive) to a plan."""
    if faults is not None and storyline is not None:
        raise ConfigurationError(
            f"--faults{suffix} and --storyline{suffix} are mutually "
            "exclusive: a storyline already is a fault plan"
        )
    if storyline is not None:
        return parse_storyline(
            storyline, run_duration=args.duration, seed=args.seed
        )
    return parse_faults(faults)


def _direct_run(spec: RunSpec, args: argparse.Namespace):
    """Execute a profiled run outside the engine.

    Bypasses the result cache on purpose — a profiled run must actually
    execute (a cache hit would profile nothing).
    """
    from repro.experiments.runner import execute_spec

    import cProfile
    import pstats

    if args.save_artifact:
        dump = args.save_artifact + ".pstats"
    else:
        dump = os.path.join(
            ensure_results_dir("results"),
            f"profile_{spec.digest()[:12]}.pstats",
        )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = execute_spec(spec)
    finally:
        profiler.disable()
        profiler.dump_stats(dump)
    stats = pstats.Stats(profiler)
    per_request = (
        f"{stats.total_calls / result.completed:.1f}" if result.completed else "n/a"
    )
    print(
        f"profile: {stats.total_calls} calls ({per_request} per completed "
        f"request) in {stats.total_tt:.2f}s, "
        f"dump written to {dump} (inspect: python -m pstats {dump})",
        file=sys.stderr,
    )
    return result


def cmd_run(args: argparse.Namespace) -> int:
    spec = RunSpec(
        args.framework,
        _config(args),
        _run_overrides(args.framework, args.param),
        faults=_fault_plan(args.faults, args.storyline, args),
    )
    if args.check:
        # Raises TwinDivergenceError (exit 2 via main) on divergence.
        # require_fluid stays off here: whether the governor finds a
        # quiet phase depends on the trace the user picked.
        print(run_twin_check(spec, args.check).describe())
        return 0
    engine = None
    if args.profile:
        result = _direct_run(spec, args)
    else:
        engine = _engine(args)
        result = engine.run(spec)
    print(format_table(_TAIL_HEADERS, [_tail_row(args.framework, result)]))
    if result.spec.faults is not None:
        in_flight = result.generated - result.completed - result.failed
        verdict = "ok" if in_flight >= 0 else "VIOLATED"
        print(
            f"conservation {verdict}: generated={result.generated} "
            f"completed={result.completed} failed={result.failed} "
            f"in_flight_end={in_flight}"
        )
        print(f"fault events: {len(result.actions.faults())}")
        recovery = result.actions.of_kind(*RECOVERY_KINDS)
        print(
            "recovery actions: "
            + " ".join(
                f"{kind}={sum(1 for e in recovery if e.kind == kind)}"
                for kind in RECOVERY_KINDS
            )
        )
        summary = result.resilience
        if summary is not None and summary.episodes:
            recoveries = ",".join(
                "never" if t != t else f"{t:.0f}s" for t in summary.recovery_s
            )
            print(
                f"resilience: timeouts={summary.timeouts} "
                f"abandoned={summary.abandoned} recover=[{recoveries}]"
            )
    if engine is not None:
        _report_cache(engine)
    if args.save:
        from repro.experiments.persistence import save_result

        print(f"summary written to {save_result(result, args.save)}")
    if args.save_artifact:
        from repro.experiments.persistence import save_artifact

        print(f"artifact written to {save_artifact(result, args.save_artifact)}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Diff the decision traces of two *cached* runs of one scenario."""
    config = _config(args)
    spec_a = RunSpec(
        args.framework, config,
        _run_overrides(args.framework, args.param_a),
        faults=_fault_plan(args.faults_a, args.storyline_a, args, "-a"),
    )
    spec_b = RunSpec(
        args.framework, config,
        _run_overrides(args.framework, args.param_b),
        faults=_fault_plan(args.faults_b, args.storyline_b, args, "-b"),
    )
    if spec_a == spec_b:
        print("note: both sides resolve to the same spec "
              f"({spec_a.digest()[:12]})", file=sys.stderr)
    engine = ExperimentEngine(
        jobs=1,
        cache_dir=args.cache_dir,
        use_cache=True,
        progress=_print_event,
        require_cached=True,
    )
    artifact_a, artifact_b = engine.run_many([spec_a, spec_b])
    diff = diff_artifacts(
        artifact_a, artifact_b, include_noops=not args.material_only
    )
    print(diff.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    engine = _engine(args)
    config = _config(args)
    frameworks = registered_frameworks()
    results = engine.run_many(RunSpec(fw, config) for fw in frameworks)
    rows = []
    summaries = []
    for framework, result in zip(frameworks, results):
        rows.append(_tail_row(framework, result))
        if args.save or args.html:
            from repro.experiments.persistence import result_summary

            summaries.append(result_summary(result))
        if args.save:
            from repro.experiments.persistence import save_result

            save_result(
                result, os.path.join(args.save, f"{framework}_{args.trace}.json")
            )
    print(format_table(_TAIL_HEADERS, rows))
    _report_cache(engine)
    if args.save:
        print(f"summaries written under {args.save}/")
    if args.html:
        from repro.experiments.htmlreport import write_html_report

        path = write_html_report(
            summaries, args.html, title=f"framework comparison — {args.trace}"
        )
        print(f"HTML report written to {path}")
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    """Run the resilience suite: frameworks x fault classes."""
    registered = registered_frameworks()
    if args.frameworks:
        frameworks = tuple(
            f.strip() for f in args.frameworks.split(",") if f.strip()
        )
        unknown = sorted(set(frameworks) - set(registered))
        if unknown:
            print(f"unknown frameworks: {', '.join(unknown)}", file=sys.stderr)
            return 2
    else:
        frameworks = registered
    engine = _engine(args)
    if args.storylines:
        names = (
            tuple(s.strip() for s in args.storylines.split(",") if s.strip())
            if isinstance(args.storylines, str)
            else None
        )
        unknown = sorted(set(names or ()) - set(storyline_names()))
        if unknown:
            print(
                f"unknown storylines: {', '.join(unknown)} "
                f"(built-in: {', '.join(storyline_names())})",
                file=sys.stderr,
            )
            return 2
        specs = storyline_suite(
            load_scale=args.scale,
            duration=args.duration,
            seed=args.seed,
            frameworks=frameworks,
            trace_name=args.trace,
            storylines=names,
        )
        results = engine.run_many(specs)
        print(format_table(STORYLINE_HEADERS, storyline_rows(results)))
    else:
        specs = resilience_suite(
            load_scale=args.scale,
            duration=args.duration,
            seed=args.seed,
            frameworks=frameworks,
            trace_name=args.trace,
        )
        results = engine.run_many(specs)
        print(format_table(RESILIENCE_HEADERS, resilience_rows(results)))
    _report_cache(engine)
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Export one run's decision trace (cached runs export instantly)."""
    spec = RunSpec(
        args.framework,
        _config(args),
        _run_overrides(args.framework, args.param),
        faults=_fault_plan(args.faults, args.storyline, args),
    )
    engine = _engine(args)
    result = engine.run(spec)
    if args.jsonl:
        from repro.experiments.persistence import trace_jsonl

        lines = trace_jsonl(result)
        if args.out:
            parent = os.path.dirname(args.out)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            print(
                f"{len(lines) - 1} events written to {args.out}",
                file=sys.stderr,
            )
        else:
            print("\n".join(lines))
        return 0
    from repro.control.trace import DecisionTrace

    events = result.actions.all() if args.noops else result.actions.material()
    print(DecisionTrace.render(events))
    return 0


def cmd_controllers(args: argparse.Namespace) -> int:
    """List the registered controllers and their parameter schemas."""
    specs = controller_specs()
    if args.json:
        import json

        print(json.dumps(
            {"version": 2, "controllers": [s.describe() for s in specs]},
            indent=2, sort_keys=True,
        ))
        return 0
    rows = []
    for spec in specs:
        params = ", ".join(f"{p.name}={p.default!r}" for p in spec.params)
        rows.append(
            (
                spec.name,
                params or "-",
                ", ".join(spec.decision_kinds) or "-",
                spec.summary,
            )
        )
    print(format_table(
        ["framework", "params (defaults)", "extra decision kinds", "summary"],
        rows,
    ))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cal = Calibration(dataset_scale=args.dataset)
    mix = (
        read_write_mix(cal.base_demands)
        if args.workload == "readwrite"
        else browse_only_mix(cal.base_demands)
    )
    ample = ample_capacity()
    if args.tier == "db":
        target_cap = (
            db_capacity_io(args.cores)
            if args.workload == "readwrite"
            else db_capacity_cpu(args.cores)
        )
        caps = {"web": ample, "app": ample, "db": target_cap}
    else:
        caps = {
            "web": ample,
            "app": app_capacity(args.cores, args.dataset),
            "db": ample,
        }
    levels = _parse_levels(args.levels)
    engine = _engine(args)
    result = concurrency_sweep(
        args.tier, caps, mix, levels, duration=args.duration,
        dataset_scale=args.dataset, engine=engine,
    )
    rows = [
        (p.concurrency, round(p.measured_concurrency, 1),
         round(p.throughput, 1), round(p.response_time * 1000, 2),
         round(p.utilization, 3))
        for p in result.points
    ]
    print(format_table(
        ["level", "measured_Q", "throughput_rps", "rt_ms", "util"], rows
    ))
    print(f"\nQ_lower (optimal concurrency): {result.q_lower()}")
    _report_cache(engine)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    traces = (
        tuple(t.strip() for t in args.traces.split(",") if t.strip())
        if args.traces
        else TRACE_NAMES
    )
    unknown = sorted(set(traces) - set(TRACE_NAMES))
    if unknown:
        print(f"unknown traces: {', '.join(unknown)}", file=sys.stderr)
        return 2
    engine = _engine(args)
    data = figures_mod.table1(
        load_scale=args.scale, duration=args.duration, seed=args.seed,
        traces=traces, engine=engine,
    )
    print(data.render())
    data.to_csv(ensure_results_dir(args.results))
    _report_cache(engine)
    return 0


_FIGURES = {
    "1": lambda a, e: figures_mod.figure1(a.scale, a.duration, a.seed, engine=e),
    "3": lambda a, e: figures_mod.figure3(engine=e),
    "5": lambda a, e: figures_mod.figure5(
        a.scale, min(a.duration, 300.0), a.seed, engine=e
    ),
    "6": lambda a, e: figures_mod.figure6(),
    "7": lambda a, e: figures_mod.figure7(engine=e),
    "9": lambda a, e: figures_mod.figure9(),
    "10": lambda a, e: figures_mod.figure10(a.scale, a.duration, a.seed, engine=e),
    "11": lambda a, e: figures_mod.figure11(a.scale, a.duration, a.seed, engine=e),
}


def cmd_figure(args: argparse.Namespace) -> int:
    engine = _engine(args)
    data = _FIGURES[args.number](args, engine)
    print(data.render())
    paths = data.to_csv(ensure_results_dir(args.results))
    print("\nCSV written:", *paths, sep="\n  ")
    _report_cache(engine)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Analytical (MVA) closed-loop prediction for a 1/1/1 topology."""
    from repro.qnet.network import predict_closed_loop
    from repro.workload.mixes import browse_only_mix

    cal = Calibration(
        app_cores=args.app_cores, db_cores=args.db_cores,
        dataset_scale=args.dataset,
    )
    mix = browse_only_mix(cal.base_demands)
    capacities = {t: cal.capacity(t) for t in ("web", "app", "db")}
    demands = {t: mix.mean_demand(t, args.dataset) for t in ("web", "app", "db")}
    prediction = predict_closed_loop(
        capacities, demands, n_max=args.users, think_time=args.think
    )
    rows = []
    step = max(1, args.users // 12)
    for n in range(1, args.users + 1):
        if n % step == 0 or n == 1 or n == args.users:
            x, r = prediction.result.at(n)
            rows.append((n, round(x, 1), round(r * 1000, 2)))
    print(format_table(["users", "throughput_rps", "response_time_ms"], rows))
    print(f"\nbottleneck tier: {prediction.bottleneck} "
          f"(peak {prediction.peak_throughput:.0f} req/s)")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro-lint static-analysis pass (see repro.lintpass)."""
    from repro.lintpass import run_lint

    if args.paths:
        paths = args.paths
    else:
        # Default target: the installed repro package source tree.
        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    report = run_lint(paths)
    print(report.render())
    return 0 if report.clean else 1


def cmd_traces(args: argparse.Namespace) -> int:
    rows = []
    for name in TRACE_NAMES:
        trace = make_trace(name)
        rows.append(
            (name, int(trace.users_at(0)), int(trace.max_users),
             int(trace.users.min()), int(trace.duration))
        )
    print(format_table(
        ["trace", "start_users", "max_users", "min_users", "duration_s"], rows
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ConScale reproduction: SCT-driven concurrency-aware "
        "autoscaling (IPDPS 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one framework on one trace")
    p_run.add_argument("framework", choices=registered_frameworks())
    _add_common_run_args(p_run)
    _add_engine_args(p_run)
    p_run.add_argument("--save", default=None,
                       help="write a JSON result summary to this path")
    p_run.add_argument("--save-artifact", default=None,
                       help="pickle the full run artifact to this path")
    p_run.add_argument(
        "--param", action="append", default=None, metavar="NAME=VALUE",
        help="set a controller parameter (repeatable; see "
        "`repro controllers` for each framework's schema)",
    )
    p_run.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="comma-separated fault plan, e.g. 'crash:db:120' or "
        "'slow:app:60:30:4,dropout:all:200:25' (kinds: slow, crash, "
        "prov, dropout, timeout)",
    )
    p_run.add_argument(
        "--storyline", default=None, metavar="NAME[:TIER[:T0[:DUR]]]",
        help="inject a named correlated-incident template instead of "
        f"--faults (built-in: {', '.join(storyline_names())}); "
        "defaults: epicenter tier db, incident at 40%% of the run, "
        "window min(60s, 20%% of the run)",
    )
    p_run.add_argument(
        "--check", choices=sorted(CHECKS), default=None,
        help="run the scenario and a twin, and fail (exit 2) if they "
        "diverge: 'race' replays it in permuted same-timestamp order and "
        "demands identical observables; 'fluid' (needs --mode hybrid) "
        "runs the discrete twin and demands request conservation "
        "and throughput/latency percentiles inside the tolerance band. "
        "Skips the cache and the normal summary output",
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="wrap the run in cProfile and write a pstats dump next to "
        "the artifact (forces re-execution, bypassing the cache)",
    )
    p_run.set_defaults(func=cmd_run)

    p_diff = sub.add_parser(
        "diff",
        help="diff the decision traces of two cached runs of one scenario",
    )
    p_diff.add_argument("framework", choices=registered_frameworks())
    _add_common_run_args(p_diff)
    p_diff.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    p_diff.add_argument(
        "--param-a", action="append", default=None, metavar="NAME=VALUE",
        help="controller parameter of side A (repeatable)",
    )
    p_diff.add_argument(
        "--param-b", action="append", default=None, metavar="NAME=VALUE",
        help="controller parameter of side B (repeatable)",
    )
    p_diff.add_argument(
        "--material-only", action="store_true",
        help="ignore no-op ticks when locating the first divergence",
    )
    p_diff.add_argument("--faults-a", default=None, metavar="PLAN",
                        help="fault plan of side A (see `run --faults`)")
    p_diff.add_argument("--faults-b", default=None, metavar="PLAN",
                        help="fault plan of side B (see `run --faults`)")
    p_diff.add_argument("--storyline-a", default=None, metavar="NAME[:...]",
                        help="storyline of side A (see `run --storyline`)")
    p_diff.add_argument("--storyline-b", default=None, metavar="NAME[:...]",
                        help="storyline of side B (see `run --storyline`)")
    p_diff.set_defaults(func=cmd_diff)

    p_ctrl = sub.add_parser(
        "controllers",
        help="list registered controllers, their params and event kinds",
    )
    p_ctrl.add_argument("--json", action="store_true",
                        help="machine-readable JSON on stdout")
    p_ctrl.set_defaults(func=cmd_controllers)

    p_cmp = sub.add_parser(
        "compare", help="run every registered framework on one trace"
    )
    _add_common_run_args(p_cmp)
    _add_engine_args(p_cmp)
    p_cmp.add_argument("--save", default=None,
                       help="write JSON result summaries into this directory")
    p_cmp.add_argument("--html", default=None,
                       help="write a self-contained HTML report to this path")
    p_cmp.set_defaults(func=cmd_compare)

    p_res = sub.add_parser(
        "resilience",
        help="run the resilience suite (frameworks x fault classes)",
    )
    p_res.add_argument(
        "--frameworks", default=None,
        help="comma-separated subset of the frameworks (default: all)",
    )
    p_res.add_argument("--trace", default="quickly_varying",
                       help="bursty trace driving the suite")
    p_res.add_argument("--scale", type=float, default=50.0)
    p_res.add_argument("--duration", type=float, default=300.0)
    p_res.add_argument("--seed", type=int, default=3)
    p_res.add_argument(
        "--storylines", nargs="?", const=True, default=False,
        metavar="NAME,NAME",
        help="score correlated incident storylines instead of isolated "
        "fault classes, pairing every storylined run with its "
        "fault-blind ablation twin (optionally a comma-separated "
        f"subset of: {', '.join(storyline_names())})",
    )
    _add_engine_args(p_res)
    p_res.set_defaults(func=cmd_resilience)

    p_trace_cmd = sub.add_parser(
        "trace", help="decision-trace utilities (export)"
    )
    trace_sub = p_trace_cmd.add_subparsers(dest="trace_command", required=True)
    p_texp = trace_sub.add_parser(
        "export",
        help="dump one run's decision trace (cached runs export instantly)",
    )
    p_texp.add_argument("framework", choices=registered_frameworks())
    _add_common_run_args(p_texp)
    _add_engine_args(p_texp)
    p_texp.add_argument(
        "--param", action="append", default=None, metavar="NAME=VALUE",
        help="controller parameter of the run to export (repeatable)",
    )
    p_texp.add_argument("--faults", default=None, metavar="PLAN",
                        help="fault plan of the run (see `run --faults`)")
    p_texp.add_argument("--storyline", default=None, metavar="NAME[:...]",
                        help="storyline of the run (see `run --storyline`)")
    p_texp.add_argument(
        "--jsonl", action="store_true",
        help="line-delimited JSON: a meta header line (spec digest, "
        "framework, storyline, event count), then one event per line",
    )
    p_texp.add_argument("--out", default=None, metavar="PATH",
                        help="write to this file instead of stdout")
    p_texp.add_argument(
        "--noops", action="store_true",
        help="include explicit no-op ticks in the human-readable form "
        "(--jsonl always includes every event)",
    )
    p_texp.set_defaults(func=cmd_trace_export)

    p_sweep = sub.add_parser("sweep", help="concurrency sweep against a tier")
    p_sweep.add_argument("tier", choices=["app", "db"])
    p_sweep.add_argument("--cores", type=float, default=1.0)
    p_sweep.add_argument("--dataset", type=float, default=1.0,
                         help="dataset scale relative to the original")
    p_sweep.add_argument("--workload", choices=["browse", "readwrite"],
                         default="browse")
    p_sweep.add_argument(
        "--levels", default="2,4,6,8,10,12,15,20,25,30,40,60,80"
    )
    p_sweep.add_argument("--duration", type=float, default=20.0)
    _add_engine_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_t1 = sub.add_parser("table1", help="regenerate Table I")
    _add_common_run_args(p_t1)
    _add_engine_args(p_t1)
    p_t1.add_argument("--traces", default=None,
                      help="comma-separated subset of the six traces")
    p_t1.add_argument("--results", default="results")
    p_t1.set_defaults(func=cmd_table1)

    p_fig = sub.add_parser("figure", help="regenerate one figure")
    p_fig.add_argument("number", choices=sorted(_FIGURES))
    _add_common_run_args(p_fig)
    _add_engine_args(p_fig)
    p_fig.add_argument("--results", default="results")
    p_fig.set_defaults(func=cmd_figure)

    p_traces = sub.add_parser("traces", help="list the built-in traces")
    p_traces.set_defaults(func=cmd_traces)

    p_lint = sub.add_parser(
        "lint",
        help="determinism/invariant static analysis (exit 1 on violations)",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_pred = sub.add_parser(
        "predict", help="analytical (MVA) closed-loop prediction"
    )
    p_pred.add_argument("--users", type=int, default=60)
    p_pred.add_argument("--think", type=float, default=0.0)
    p_pred.add_argument("--app-cores", type=float, default=1.0)
    p_pred.add_argument("--db-cores", type=float, default=1.0)
    p_pred.add_argument("--dataset", type=float, default=1.0)
    p_pred.set_defaults(func=cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
