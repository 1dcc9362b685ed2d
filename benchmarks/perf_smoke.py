#!/usr/bin/env python
"""Perf smoke guard: fail CI when the hybrid mode's speed-up regresses.

Re-measures the hybrid-vs-discrete wall-time speed-up on the guard-sized
steady workload (see :mod:`fluid_workload`) and fails when it falls more
than ``--tolerance`` (default 30%) below the ``fluid.guard`` entry of
the committed baseline ``benchmarks/BENCH_core.json``. The speed-up is a
same-machine wall-time ratio, so slower hardware does not trip the
guard.

``--record-fluid`` instead re-measures both the guard and the
~1M-session full workload and rewrites the baseline's ``fluid`` section
(slow: the full discrete twin runs for minutes).

The event calendar has no guard here: the end-to-end workloads in
``BENCHMARK.json`` and the exact call count in
``tests/ntier/test_call_budget.py`` cover it.

Usage::

    python benchmarks/perf_smoke.py --baseline benchmarks/BENCH_core.json
    python benchmarks/perf_smoke.py --record-fluid # refresh fluid baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from fluid_workload import FULL, GUARD, measure_fluid  # noqa: E402

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_core.json"
)


def record_fluid(path: str) -> dict:
    """Measure the fluid workloads and merge them into the baseline."""
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    print("measuring guard workload (~60k sessions)...")
    guard = measure_fluid(**GUARD)
    print(f"  guard: {guard['sessions']} sessions, "
          f"speedup {guard['speedup_hybrid_vs_discrete']}x")
    print("measuring full workload (~1M sessions, slow)...")
    full = measure_fluid(**FULL)
    print(f"  full: {full['sessions']} sessions, "
          f"speedup {full['speedup_hybrid_vs_discrete']}x")
    baseline["fluid"] = {"full": full, "guard": guard}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return baseline["fluid"]


def check_fluid(baseline: dict, tolerance: float) -> bool:
    """Re-measure the guard workload; True when inside tolerance."""
    recorded = baseline.get("fluid", {}).get("guard")
    if not recorded:
        # The only guard left: a missing baseline must not pass.
        print("fluid: no recorded fluid.guard baseline -> FAILED")
        return False
    fresh = measure_fluid(
        duration=float(recorded["duration"]),
        load_scale=float(recorded["load_scale"]),
    )
    base_speedup = float(recorded["speedup_hybrid_vs_discrete"])
    speedup = fresh["speedup_hybrid_vs_discrete"]
    floor = base_speedup * (1.0 - tolerance)
    verdict = "ok" if speedup >= floor else "REGRESSION"
    print(f"fluid    {fresh['sessions']} sessions  "
          f"wall d={fresh['wall']['discrete']}s h={fresh['wall']['hybrid']}s  "
          f"speedup {speedup:.2f}x  baseline {base_speedup:.2f}x  "
          f"floor {floor:.2f}x  -> {verdict}")
    return speedup >= floor


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON path (default: committed baseline)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--record-fluid", action="store_true",
                        help="re-measure the fluid workloads and rewrite the "
                             "baseline's fluid section (slow)")
    args = parser.parse_args(argv)

    if args.record_fluid:
        fluid = record_fluid(args.baseline)
        print(f"fluid baseline written to {args.baseline}: full speedup "
              f"{fluid['full']['speedup_hybrid_vs_discrete']}x, guard "
              f"{fluid['guard']['speedup_hybrid_vs_discrete']}x")
        return 0

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    if not check_fluid(baseline, args.tolerance):
        print("perf smoke FAILED")
        return 1
    print("perf smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
