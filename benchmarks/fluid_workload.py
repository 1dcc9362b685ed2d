"""The hybrid-vs-discrete speedup workload for the perf smoke.

A steady constant-load trace is where the fluid integrator earns its
keep: the :class:`~repro.sim.governor.ModeGovernor` holds the run fluid
for almost the whole window, so the hybrid run's cost is the fixed
telemetry/controller machinery plus a handful of materialisation
bursts, while the discrete twin pays per-request events for every
session. The headline metric is **events-equivalent throughput**: the
discrete twin's executed event count divided by each run's wall time —
i.e. how fast each mode chews through the *same* simulated work.

Two sizes share one definition:

* ``FULL`` — ~1M generated sessions (900 s at load scale 1). The
  recorded baseline's headline speedup; too slow to re-measure in CI.
* ``GUARD`` — ~60k sessions (300 s at load scale 10). Re-measured by
  ``perf_smoke.py`` and compared against the recorded guard speedup.
  The speedup is a same-machine ratio, so slower hardware does not
  read as a regression.
"""

from __future__ import annotations

import gc
import time
from typing import Any

from repro.experiments.artifact import RunSpec
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.sim.engine import Simulator
from repro.workload.shapes import steady_trace_csv

#: The recorded headline workload (~1M sessions).
FULL: dict[str, float] = {"duration": 900.0, "load_scale": 1.0}
#: The CI guard workload (~60k sessions).
GUARD: dict[str, float] = {"duration": 300.0, "load_scale": 10.0}

_USERS = 4000.0
_SEED = 11
_TOPOLOGY = (1, 2, 2)


def fluid_spec(mode: str, *, duration: float, load_scale: float) -> RunSpec:
    """One side of the speedup comparison (``discrete`` or ``hybrid``)."""
    return RunSpec(
        framework="conscale",
        config=ScenarioConfig(
            name="bench-fluid-steady",
            trace_name=steady_trace_csv(users=_USERS, duration=duration),
            load_scale=load_scale,
            duration=duration,
            seed=_SEED,
            topology=_TOPOLOGY,
            mode=mode,
        ),
    )


def _timed_run(spec: RunSpec) -> tuple[float, int, int]:
    """(wall seconds, events executed, sessions generated) for one run."""
    sim = Simulator()
    gc.collect()
    t0 = time.perf_counter()
    artifact = execute_spec(spec, sim=sim)
    wall = time.perf_counter() - t0
    return wall, sim.events_executed, artifact.generated


def measure_fluid(
    *, duration: float, load_scale: float, rounds: int = 1
) -> dict[str, Any]:
    """Best-of-``rounds`` discrete-vs-hybrid comparison at one size.

    Returns the ``BENCH_core.json`` fluid-entry schema: session count,
    the discrete twin's event count (the events-equivalent numerator),
    per-mode wall times and events-equivalent rates, and the speedup.
    """
    walls: dict[str, float] = {}
    events = sessions = 0
    for _ in range(rounds):
        for mode in ("discrete", "hybrid"):
            spec = fluid_spec(mode, duration=duration, load_scale=load_scale)
            wall, executed, generated = _timed_run(spec)
            if mode not in walls or wall < walls[mode]:
                walls[mode] = wall
            if mode == "discrete":
                events, sessions = executed, generated
    return {
        "duration": duration,
        "load_scale": load_scale,
        "sessions": sessions,
        "events_equivalent": events,
        "wall": {m: round(w, 2) for m, w in walls.items()},
        "rates": {m: round(events / w, 1) for m, w in walls.items()},
        "speedup_hybrid_vs_discrete": round(
            walls["discrete"] / walls["hybrid"], 2
        ),
    }
