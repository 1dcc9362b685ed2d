"""The workloads, and one measured repetition of one of them.

Imported by ``child.py`` once its host-speed probe is running. Builds
the workload's spec, then, depending on the mode:

* ``setup`` stops there (a set-up time probe);
* ``e2e`` runs the spec cold through ``ExperimentEngine.run``, then
  warm from a fresh engine on the same cache directory (at least ten
  times and for at least half a second);
* ``trace`` runs it cold untraced, then once more under the layer
  tracer (see ``layertrace.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"repro imported from {repro.__file__}, not from {ROOT}/src")

from fluid_workload import FULL, fluid_spec  # noqa: E402
from repro.experiments.artifact import RunArtifact, RunSpec  # noqa: E402
from repro.experiments.engine import ExperimentEngine  # noqa: E402
from repro.experiments.resilience import resilience_scenario  # noqa: E402
from repro.experiments.scenarios import ScenarioConfig  # noqa: E402
from repro.faults.storyline import parse_storyline  # noqa: E402

import layertrace  # noqa: E402

#: Warm-cache loads averaged into ``cache_hit_s``: at least this many,
#: and for at least WARM_MIN_S, since one small load takes about 10 ms,
#: too short to time alone or to take host-speed samples in.
WARM_LOADS = 10
WARM_MIN_S = 0.5

#: Simulated seconds of the lv and az workloads at full size; --smoke
#: runs every workload for SMOKE_DURATION instead.
DURATION = 700.0
SMOKE_DURATION = 60.0
#: The `repro run` CLI's default seed, for the workloads built on it.
CLI_SEED = 3


def _large_variations(framework: str, seed: int | None, smoke: bool) -> RunSpec:
    # The `repro run` CLI defaults: the Fig. 10 / Table I cell.
    return RunSpec(
        framework,
        ScenarioConfig(
            name="cli", load_scale=50.0,
            duration=SMOKE_DURATION if smoke else DURATION,
            seed=CLI_SEED if seed is None else seed,
        ),
    )


def _steady_hybrid(seed: int | None, smoke: bool) -> RunSpec:
    size = {**FULL, "duration": SMOKE_DURATION} if smoke else FULL
    spec = fluid_spec("hybrid", **size)
    if seed is None:
        return spec
    return dataclasses.replace(spec, config=spec.config.with_(seed=seed))


def _az_outage(seed: int | None, smoke: bool) -> RunSpec:
    duration = SMOKE_DURATION if smoke else DURATION
    seed = CLI_SEED if seed is None else seed
    return RunSpec(
        "conscale",
        resilience_scenario(20.0, duration, seed),
        faults=parse_storyline("az-outage:db", run_duration=duration, seed=seed),
    )


#: name -> (spec builder, per-layer counts that must be 0, per-layer
#: counts that must be > 0). The counts pin what each workload is for:
#: the layers it must exercise and the ones it must bypass.
WORKLOADS = {
    "lv-conscale": (
        functools.partial(_large_variations, "conscale"),
        ("sim.fluid.calls", "ntier.synthetic.calls", "faults.episodes"),
        ("sct.calls",),
    ),
    "lv-ec2": (
        functools.partial(_large_variations, "ec2"),
        ("sct.calls", "sim.fluid.calls", "ntier.synthetic.calls",
         "faults.episodes"),
        (),
    ),
    "steady-hybrid": (
        _steady_hybrid,
        ("faults.episodes",),
        ("sim.fluid.calls", "ntier.synthetic.calls"),
    ),
    "az-outage": (
        _az_outage,
        ("sim.fluid.calls", "ntier.synthetic.calls"),
        ("faults.episodes",),
    ),
}


def _summary(artifact: RunArtifact) -> dict[str, object]:
    tail = artifact.tail()
    return {
        "signature": artifact.signature(),
        "sim_requests": artifact.generated,
        "sim_completed": artifact.completed,
        "sim_failed": artifact.failed,
        "sim_p50_ms": tail.p50 * 1000.0,
        "sim_p99_ms": tail.p99 * 1000.0,
    }


def _cold(
    spec: RunSpec, cache_dir: str, host_speed, out: dict, problems: list[str]
) -> None:
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    gc.collect()
    mark = host_speed.mark()
    t0 = time.perf_counter()
    artifact = engine.run(spec)
    out["wall_s"] = time.perf_counter() - t0
    out["host_factor"]["wall_s"] = host_speed.factor(mark, host_speed.mark())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if engine.executed != 1:
        problems.append(f"cold run executed {engine.executed} specs, not 1")
    if artifact.generated < artifact.completed + artifact.failed:
        problems.append(
            f"conservation: generated {artifact.generated} < completed "
            f"{artifact.completed} + failed {artifact.failed}"
        )
    out.update(_summary(artifact))


def _warm(
    spec: RunSpec, cache_dir: str, host_speed, out: dict, problems: list[str]
) -> None:
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    loads = 0
    total = 0.0
    mark = host_speed.mark()
    while loads < WARM_LOADS or total < WARM_MIN_S:
        if loads:
            del artifact
        t0 = time.perf_counter()
        artifact = engine.run(spec)
        total += time.perf_counter() - t0
        loads += 1
    out["cache_hit_s"] = total / loads
    out["host_factor"]["cache_hit_s"] = host_speed.factor(mark, host_speed.mark())
    if engine.executed or engine.stats.hits != loads:
        problems.append(
            f"warm engine: {engine.stats.hits} hits, {engine.executed} executed"
        )
    if artifact.signature() != out["signature"]:
        problems.append("warm-cache signature differs from the cold run's")


def _traced(
    spec: RunSpec, cache_dir: str, idle: tuple, busy: tuple, out: dict,
    problems: list[str],
) -> None:
    layers, signature = layertrace.traced_pass(spec, cache_dir, out["wall_s"])
    out["layers"] = layers
    if signature != out["signature"]:
        problems.append("traced signature differs from the untraced run's")
    for name in idle:
        if layers[name]["value"] != 0:
            problems.append(f"{name} is {layers[name]['value']}, expected 0")
    for name in busy:
        if layers[name]["value"] <= 0:
            problems.append(f"{name} is {layers[name]['value']}, expected > 0")


def repetition(
    workload: str, mode: str, seed: int | None, smoke: bool, cache_dir: str,
    host_speed,
) -> dict[str, object]:
    """One repetition; ``host_speed`` is the running host-speed probe.

    Times are as measured, and ``host_factor`` maps each to the host
    factor over the stretch it covers (see ``child.py``).
    """
    build, idle, busy = WORKLOADS[workload]
    spec = build(seed, smoke)
    out: dict = {
        "spec_built": time.monotonic(),
        "host_factor": {"setup_s": host_speed.factor(0, host_speed.mark())},
    }
    problems: list[str] = []
    if mode != "setup":
        _cold(spec, os.path.join(cache_dir, "cold"), host_speed, out, problems)
        if mode == "e2e":
            _warm(spec, os.path.join(cache_dir, "cold"), host_speed, out, problems)
    host_speed.stop()
    if mode == "trace":
        _traced(spec, os.path.join(cache_dir, "traced"), idle, busy, out, problems)
    out["problems"] = problems
    return out
