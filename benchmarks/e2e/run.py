#!/usr/bin/env python3
"""End-to-end benchmark: reproduced runs, timed from outside.

Each repetition of a workload runs in a fresh interpreter (``child.py``)
through the public ``ExperimentEngine.run(spec)`` path, on the serial
backend and a throwaway cache directory. Repetitions run one at a time;
with several workloads they go round-robin, so a burst of noise on a
shared machine spreads over all of them. Repetitions continue until
``--seconds`` per workload have passed (at least one each), and every
metric is the median over them. ``setup_s`` is sampled at least five
times per workload, by extra set-up-only probes if needed.

The times are scaled to a reference host speed measured alongside them
(see ``child.py``); the raw times are printed too, not gated.

Usage::

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload lv-ec2 --seed 4
    python3 benchmarks/e2e/run.py --trace 1            # per-layer split
    python3 benchmarks/e2e/run.py --smoke --seconds 1  # 60 s simulated

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With one
workload the metric names are bare (``wall_s``); with several they are
prefixed by the workload (``lv-ec2.wall_s``). Scratch files go to a
temporary directory in the checkout that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Workload names, in round-robin order (their definitions: measure.py).
WORKLOADS = ("lv-conscale", "lv-ec2", "steady-hybrid", "az-outage")

E2E_UNITS = {"wall_s": "s", "cache_hit_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
INFO_KEYS = ("sim_requests", "sim_completed", "sim_failed", "sim_p50_ms", "sim_p99_ms")

MIN_SETUPS = 5
#: Fig. 10: ConScale's p99 must beat EC2-AutoScaling's by this factor
#: (the bench_fig10 threshold). Checked at full size when both lv
#: workloads ran.
FIG10_RATIO = 1.5
CHILD_TIMEOUT_S = 170.0


def _run_child(
    workload: str, mode: str, args: argparse.Namespace, scratch: str, env: dict
) -> tuple[dict | None, str | None]:
    """One child process; returns (its result, or None, and an error)."""
    cache_dir = tempfile.mkdtemp(dir=scratch)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), workload,
        "--mode", mode,
        "--cache-dir", cache_dir,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    cmd += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"{workload}/{mode}: timed out after {CHILD_TIMEOUT_S:.0f} s"
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{workload}/{mode}: exit code {proc.returncode}"
    return json.loads(lines[-1]), None


def _measure(args: argparse.Namespace, workloads: list[str], scratch: str) -> dict:
    """Run the repetitions; returns per-workload samples and problems."""
    # The steady trace CSV is written under TMPDIR, so keep it in scratch.
    env = dict(os.environ, TMPDIR=scratch)
    mode = "trace" if args.trace else "e2e"
    reps: dict[str, list[dict]] = {w: [] for w in workloads}
    setups: dict[str, list[dict]] = {w: [] for w in workloads}
    problems: dict[str, list[str]] = {w: [] for w in workloads}
    attempted = {w: 0 for w in workloads}
    failed = {w: 0 for w in workloads}

    # Compiles the bytecode and warms the file cache; not measured.
    _, error = _run_child(workloads[0], "setup", args, scratch, env)
    if error is not None:
        raise SystemExit(f"warm-up child failed: {error}")

    start = time.monotonic()
    budget = args.seconds * len(workloads)
    while not attempted[workloads[0]] or time.monotonic() - start < budget:
        for w in workloads:
            attempted[w] += 1
            result, error = _run_child(w, mode, args, scratch, env)
            if result is None or result["problems"]:
                failed[w] += 1
                problems[w] += [error] if result is None else result["problems"]
            if result is not None:
                reps[w].append(result)
                setups[w].append(result)
    for w in workloads:
        while mode == "e2e" and len(setups[w]) < MIN_SETUPS:
            result, error = _run_child(w, "setup", args, scratch, env)
            if result is None:
                raise SystemExit(f"set-up probe failed: {error}")
            setups[w].append(result)
    return {
        "reps": reps, "setups": setups, "problems": problems,
        "attempted": attempted, "failed": failed,
    }


def _aggregate(reps: list[dict], setups: list[dict], trace: bool,
               problems: list[str]) -> tuple[dict, dict]:
    """(gated metrics, informational values) for one workload."""
    for key in ("signature",) + INFO_KEYS:
        if len({r[key] for r in reps}) > 1:
            problems.append(f"{key} differs between repetitions of one seed")
    info = {key: reps[0][key] for key in INFO_KEYS}
    info["signature"] = reps[0]["signature"]
    info["repetitions"] = len(reps)
    generated = info["sim_requests"]
    info["fail_frac"] = (generated - info["sim_completed"]) / generated
    if trace:
        metrics = {}
        for name, first in reps[0]["layers"].items():
            values = [r["layers"][name]["value"] for r in reps]
            if first["unit"] in ("count", "ratio") and len(set(values)) > 1:
                problems.append(f"{name} differs between repetitions: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
        return metrics, info
    metrics = {}
    for name, unit in E2E_UNITS.items():
        samples = setups if name == "setup_s" else reps
        if unit == "s":
            info[f"raw_{name}"] = statistics.median(r[name] for r in samples)
            value = statistics.median(
                r[name] * r["host_factor"][name] for r in samples
            )
        else:
            value = statistics.median(r[name] for r in samples)
        metrics[name] = {"value": value, "unit": unit}
    info["host_factor"] = statistics.median(r["host_factor"]["wall_s"] for r in reps)
    return metrics, info


def _print_workload(workload: str, metrics: dict, info: dict) -> None:
    print(f"== {workload}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for name, value in info.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:32s} {shown:>14s} (not gated)")


def _check_layout() -> str | None:
    for rel in ("src/repro/__init__.py", "benchmarks/fluid_workload.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return f"{rel} not found under {ROOT}: run from a full checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="replaces every workload's own seed",
    )
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="measuring time per workload; at least one repetition runs",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer split instead of the end-to-end metrics",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="60 s of simulated time per workload")
    parser.add_argument("--json", metavar="PATH",
                        help="also write every sample and value to PATH")
    args = parser.parse_args(argv)

    error = _check_layout()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    with tempfile.TemporaryDirectory(prefix=".e2e-tmp-", dir=ROOT) as scratch:
        run = _measure(args, workloads, scratch)

    results = {}
    for w in workloads:
        if not run["reps"][w]:
            print(f"error: no repetition of {w} succeeded: {run['problems'][w]}",
                  file=sys.stderr)
            return 1
        metrics, info = _aggregate(
            run["reps"][w], run["setups"][w], bool(args.trace), run["problems"][w]
        )
        results[w] = {"metrics": metrics, "info": info}

    both_lv = {"lv-conscale", "lv-ec2"} <= set(workloads)
    if both_lv and not args.smoke:
        conscale = results["lv-conscale"]["info"]["sim_p99_ms"]
        ec2 = results["lv-ec2"]["info"]["sim_p99_ms"]
        if not conscale * FIG10_RATIO < ec2:
            run["problems"]["lv-conscale"].append(
                f"Fig. 10 shape: conscale p99 {conscale:.1f} ms x {FIG10_RATIO} "
                f"is not below ec2 p99 {ec2:.1f} ms"
            )

    for w in workloads:
        _print_workload(w, results[w]["metrics"], results[w]["info"])
    problems = [f"{w}: {p}" for w in workloads for p in run["problems"][w]]
    for p in problems:
        print(f"CHECK FAILED {p}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"args": vars(args), "results": results, "runs": run}, fh,
                      indent=2, sort_keys=True)

    prefix = len(workloads) > 1
    flat = {
        (f"{w}.{name}" if prefix else name): m
        for w in workloads
        for name, m in results[w]["metrics"].items()
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run["attempted"].values()),
        "failed": sum(run["failed"].values()),
        "metrics": flat,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
