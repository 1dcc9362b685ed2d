"""Outside-in per-layer tracing of one run, for the end-to-end benchmark.

Nothing under ``src/`` knows it is being traced. The tracer reaches the
layers from outside, in two ways:

* :class:`TracedSimulator` is passed to ``execute_spec(spec, sim=...)``.
  Its ``schedule`` wraps every callback in a timing shim. ``reschedule``
  and ``rearm`` reuse the handle's (already wrapped) callback, and the
  run loop executes nothing else, so every event lands in a span. The
  shim charges the callback to its ``PRIORITY_*`` layer, and model-
  priority callbacks to the package that defines them.
* A fixed list of public methods is wrapped on their classes for the
  duration of the pass and restored afterwards.

Spans nest on one stack. A layer's *self* time is its spans' inclusive
time minus the time of the spans nested inside them, so the calendar's
self time is ``Simulator.run`` minus every callback it dispatched.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Any, Callable

from repro.control.bus import ControlBus
from repro.control.events import MODE_KINDS
from repro.experiments.artifact import RunArtifact, RunSpec
from repro.experiments.cache import ResultCache
from repro.experiments.runner import execute_spec
from repro.monitoring.records import RequestLog
from repro.ntier.app import NTierApplication
from repro.scaling.actuator import Actuator
from repro.scaling.estimator import OptimalConcurrencyEstimator
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.workload.generator import RequestFactory

__all__ = ["Tracer", "TracedSimulator", "traced_pass"]

_now = time.perf_counter

#: Observer priorities, by the name of their constant in repro.sim.engine.
_PRIORITY_LAYERS = {
    "PRIORITY_FLUID": "sim.fluid",
    "PRIORITY_WAREHOUSE": "monitoring.warehouse",
    "PRIORITY_GOVERNOR": "sim.governor",
    "PRIORITY_CONTROLLER": "scaling.controller",
    "PRIORITY_SAMPLER": "sampler",
    "PRIORITY_FINE_MONITOR": "monitoring.fine",
}

#: Model-priority callbacks, by the package that defines them.
_MODEL_LAYERS = {
    "repro.ntier": "ntier",
    "repro.workload": "workload",
    "repro.cloud": "cloud",
    "repro.faults": "faults",
    "repro.scaling": "scaling.actuator",
}

#: Model callbacks from any other package; reported as unattributed.
_MODEL_OTHER = "model.other"

#: The public methods timed as spans of their own.
_METHOD_LAYERS: tuple[tuple[type, str, str], ...] = (
    (NTierApplication, "submit", "ntier"),
    (NTierApplication, "record_synthetic_completion", "ntier.synthetic"),
    (RequestFactory, "create", "workload"),
    (RequestLog, "record", "monitoring.requestlog"),
    (OptimalConcurrencyEstimator, "estimate_tier", "sct"),
    (ControlBus, "publish", "control.bus"),
    (ResultCache, "store", "experiments.cache.store"),
    (ResultCache, "load", "experiments.cache.load"),
    (RunArtifact, "signature", "experiments.signature"),
) + tuple(
    (Actuator, name, "scaling.actuator")
    for name in (
        "bootstrap", "scale_out", "expedite_retries", "scale_up", "scale_in",
        "crash_server", "set_web_threads", "set_app_threads",
        "set_app_threads_for", "set_db_connections",
    )
)


def _priority_layers() -> dict[int, str]:
    """``{priority value: layer}``, read from the engine at run time."""
    declared = {n for n in engine.__all__ if n.startswith("PRIORITY_")}
    unknown = declared - set(_PRIORITY_LAYERS) - {"PRIORITY_MODEL"}
    if unknown:
        raise RuntimeError(f"no layer for engine priorities {sorted(unknown)}")
    layers = {getattr(engine, n): layer for n, layer in _PRIORITY_LAYERS.items()}
    if engine.PRIORITY_MODEL in layers or len(layers) != len(_PRIORITY_LAYERS):
        raise RuntimeError("engine priorities are no longer distinct")
    return layers


class Tracer:
    """A stack of open spans, and self time and call counts per layer."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        # One [layer, start, time in nested spans] entry per open span.
        self._stack: list[list[Any]] = []
        self._by_priority = _priority_layers()
        self._by_module: dict[str, str] = {}

    def enter(self, layer: str) -> None:
        self._stack.append([layer, _now(), 0.0])

    def leave(self) -> None:
        layer, start, nested = self._stack.pop()
        elapsed = _now() - start
        self.self_s[layer] += elapsed - nested
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def open_self_s(self) -> float:
        """Self time so far of the innermost open span."""
        _, start, nested = self._stack[-1]
        return _now() - start - nested

    def layer_of(self, callback: Callable[..., Any], priority: int) -> str:
        if priority != engine.PRIORITY_MODEL:
            return self._by_priority[priority]
        module = getattr(callback, "__module__", None) or ""
        layer = self._by_module.get(module)
        if layer is None:
            package = ".".join(module.split(".")[:2])
            layer = self._by_module[module] = _MODEL_LAYERS.get(package, _MODEL_OTHER)
        return layer

    def shim(self, callback: Callable[..., Any], priority: int) -> Callable[..., None]:
        """``callback`` wrapped in a span of its layer."""
        layer = self.layer_of(callback, priority)
        enter, leave = self.enter, self.leave

        def timed(*args: Any) -> None:
            enter(layer)
            callback(*args)
            leave()

        return timed

    def wrap_methods(self) -> Callable[[], None]:
        """Wrap every method of :data:`_METHOD_LAYERS`; returns the undo."""
        originals = []
        for cls, name, layer in _METHOD_LAYERS:
            original = cls.__dict__[name]
            originals.append((cls, name, original))
            setattr(cls, name, self._span_of(original, layer))

        def restore() -> None:
            for cls, name, original in originals:
                setattr(cls, name, original)

        return restore

    def _span_of(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return timed


class TracedSimulator(Simulator):
    """A simulator whose every event runs inside a span of its layer.

    ``run_marks`` holds the caller's self time (the open span around
    ``execute_spec``) at the start and end of each ``run`` call, which
    splits that span into build (before the first run) and package
    (after the last run).
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self.run_marks: list[float] = []

    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = engine.PRIORITY_MODEL,
    ):
        return super().schedule(
            time, self._tracer.shim(callback, priority), *args, priority=priority
        )

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        tracer = self._tracer
        self.run_marks.append(tracer.open_self_s())
        tracer.enter("sim.calendar")
        super().run(until, max_events)
        tracer.leave()
        self.run_marks.append(tracer.open_self_s())


def _fluid_share(artifact: RunArtifact) -> float:
    """Share of the generation window the governor spent in fluid mode."""
    fluid_entered, discrete_entered = MODE_KINDS
    duration = artifact.config.duration
    fluid = 0.0
    since = None
    for event in artifact.actions.of_kind(*MODE_KINDS):
        if event.kind == fluid_entered and since is None:
            since = event.time
        elif event.kind == discrete_entered and since is not None:
            fluid += min(event.time, duration) - since
            since = None
    if since is not None:
        fluid += duration - since
    return fluid / duration


def _actionable_ratio(artifact: RunArtifact) -> float:
    estimates = [e for hist in artifact.estimates.values() for e in hist]
    if not estimates:
        return 0.0
    return sum(e.actionable for e in estimates) / len(estimates)


def traced_pass(
    spec: RunSpec, cache_dir: str, untraced_wall_s: float
) -> tuple[dict[str, dict[str, float | str]], str]:
    """Run ``spec`` once under the tracer; returns (metrics, signature).

    The traced window covers what the untraced ``wall_s`` covers: the
    build, the simulation, the packaging and the cache store. The
    signature and a cache load are timed after the window closes.
    """
    tracer = Tracer()
    cache = ResultCache(cache_dir)
    key = spec.digest()
    restore = tracer.wrap_methods()
    try:
        sim = TracedSimulator(tracer)
        t0 = _now()
        tracer.enter("experiments")
        artifact = execute_spec(spec, sim=sim)
        execute_self_s = tracer.open_self_s()
        tracer.leave()
        entry_path = cache.store(key, artifact)
        traced_wall_s = _now() - t0
        signature = artifact.signature()
        counts = {
            "sct.actionable_ratio": (_actionable_ratio(artifact), "ratio"),
            "sim.governor.fluid_share": (_fluid_share(artifact), "ratio"),
            "scaling.actions": (len(artifact.actions.material()), "count"),
            "faults.episodes": (
                len(artifact.resilience.episodes) if artifact.resilience else 0,
                "count",
            ),
        }
        del artifact
        if cache.load(key) is None:
            raise RuntimeError("traced pass: the stored cache entry did not load")
    finally:
        restore()

    self_s, calls = tracer.self_s, tracer.calls
    metrics: dict[str, tuple[float, str]] = {
        "sim.events": (sim.events_executed, "count"),
        "sim.calendar.self_s": (self_s["sim.calendar"], "s"),
        "sim.calendar.compactions": (sim.calendar_stats()["compactions"], "count"),
        "experiments.build_s": (sim.run_marks[0], "s"),
        "experiments.package_s": (execute_self_s - sim.run_marks[-1], "s"),
        "experiments.cache.store_s": (self_s["experiments.cache.store"], "s"),
        "experiments.cache.load_s": (self_s["experiments.cache.load"], "s"),
        "experiments.cache.entry_mb": (os.path.getsize(entry_path) / 2**20, "MB"),
        "experiments.signature_s": (self_s["experiments.signature"], "s"),
        "monitoring.requestlog.records": (calls["monitoring.requestlog"], "count"),
        "control.bus.events": (calls["control.bus"], "count"),
        **counts,
    }
    for layer in (
        "ntier", "ntier.synthetic", "workload", "sim.fluid", "monitoring.fine",
        "sct",
    ):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for layer in (
        "ntier", "ntier.synthetic", "workload", "sim.fluid", "sim.governor",
        "monitoring.fine", "monitoring.warehouse", "monitoring.requestlog",
        "sct", "scaling.controller", "scaling.actuator", "cloud", "faults",
        "control.bus", "sampler",
    ):
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    # Everything in the window that no reported span claims: tracer
    # gaps, the stretch between the two run() calls, other model code.
    in_window = sum(
        value for name, (value, unit) in metrics.items()
        if unit == "s" and name not in (
            "experiments.cache.load_s", "experiments.signature_s"
        )
    )
    metrics["trace.unattributed_s"] = (traced_wall_s - in_window, "s")
    metrics["trace.overhead"] = (traced_wall_s / untraced_wall_s, "x")
    return (
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        signature,
    )
