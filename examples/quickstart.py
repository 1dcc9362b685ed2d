#!/usr/bin/env python
"""Quickstart: compare EC2-AutoScaling against ConScale on one trace.

Runs the paper's headline experiment at laptop scale: the same bursty
workload against the same simulated 3-tier RUBBoS system, scaled once
with hardware-only EC2-AutoScaling and once with ConScale's SCT-driven
soft-resource adaption, then prints the tail-latency comparison and the
scaling timelines.

Usage:
    python examples/quickstart.py [trace_name]

Trace names: large_variations (default), quickly_varying,
slowly_varying, big_spike, dual_phase, steep_tri_phase.
"""

import sys

from repro import ScenarioConfig, run_experiment
from repro.control.trace import DecisionTrace
from repro.experiments.report import format_table


def main() -> None:
    trace = sys.argv[1] if len(sys.argv) > 1 else "large_variations"
    config = ScenarioConfig(
        name="quickstart",
        trace_name=trace,
        load_scale=50,  # 1/50th of the paper's 7,500 users; shape-preserving
        duration=700.0,  # the paper's ~12-minute window
        seed=3,
    )
    print(f"trace={trace}, peak users={config.max_users:.0f} "
          f"(simulated at 1/{config.load_scale:.0f} scale)\n")

    results = {}
    for framework in ("ec2", "conscale"):
        print(f"running {framework} ...")
        results[framework] = run_experiment(framework, config)

    rows = []
    for framework, result in results.items():
        tail = result.tail()
        rows.append(
            (
                framework,
                result.completed,
                round(tail.p50 * 1000, 1),
                round(tail.p95 * 1000, 1),
                round(tail.p99 * 1000, 1),
                int(result.vm_counts.max()),
            )
        )
    print()
    print(format_table(
        ["framework", "requests", "p50_ms", "p95_ms", "p99_ms", "max_vms"], rows
    ))

    ec2_p99 = results["ec2"].tail().p99
    cs_p99 = results["conscale"].tail().p99
    print(f"\nConScale p99 improvement over EC2-AutoScaling: "
          f"{ec2_p99 / cs_p99:.2f}x")

    print("\nConScale's soft-resource adaptions:")
    soft = [a for a in results["conscale"].actions
            if a.kind.startswith("soft")]
    print(DecisionTrace.render(soft[:15]) or "  (none)")


if __name__ == "__main__":
    main()
