"""The experiment engine: cached, parallel execution of specs.

The engine executes an iterable of :class:`~repro.experiments.artifact.
RunSpec`s (or any content-keyed task) with a content-addressed on-disk
result cache under ``results/cache/``:

* cache keys are the spec's canonical digest — same spec, same key, on
  any machine and in any process (see
  :mod:`repro.experiments.cache`);
* cache misses run inline when ``jobs == 1`` or only one task misses,
  and otherwise across a ``ProcessPoolExecutor`` of up to ``jobs``
  worker processes; either way results come back in submission order,
  with :class:`RunEvent` progress, and ``require_cached`` refuses to
  execute at all;
* hit/miss/invalidation counts are accounted per engine
  (:class:`CacheStats`), and ``use_cache=False`` is the escape hatch.

Determinism is a tested contract: a spec's artifact is bit-identical
inline, from a pool worker and from the cache
(``tests/experiments/test_engine.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.errors import CacheMissError, ConfigurationError, ExperimentError
from repro.experiments.artifact import RunArtifact, RunSpec
from repro.experiments.cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache

__all__ = [
    "CacheStats",
    "ResultCache",
    "RunEvent",
    "ExperimentEngine",
    "inline_engine",
    "DEFAULT_CACHE_DIR",
]


# ----------------------------------------------------------------------
# progress telemetry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunEvent:
    """One progress event: ``kind`` is start | hit | done | stored.

    ``seconds`` on a ``done`` event is the task's own execution time,
    measured where the task ran (a pool worker times the call around
    ``fn`` itself, so queue wait and pool start-up are excluded).
    """

    kind: str
    label: str
    index: int
    total: int
    key: str | None = None
    seconds: float = 0.0


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _timed_call(fn: Callable[[Any], Any], payload: Any) -> tuple[Any, float]:
    """Run ``fn(payload)``, returning ``(result, wall_seconds)``.

    Module-level so it is the pool's entry point too: the time is taken
    in the worker, around the call alone.
    """
    t0 = time.perf_counter()
    result = fn(payload)
    return result, time.perf_counter() - t0


class ExperimentEngine:
    """Executes content-keyed tasks with caching and process fan-out.

    ``jobs`` 1 runs cache misses inline; > 1 runs them across a process
    pool of ``min(jobs, misses)`` workers (a single miss still runs
    inline). Results are returned in submission order regardless of
    completion order, and cache writes happen in the coordinating
    process only, so concurrent engines never race on entry files
    beyond the atomic-replace guarantee.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        progress: Callable[[RunEvent], None] | None = None,
        require_cached: bool = False,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs!r}")
        if require_cached and not use_cache:
            raise ConfigurationError(
                "require_cached=True is meaningless with use_cache=False"
            )
        self.jobs = int(jobs)
        self.cache = ResultCache(cache_dir) if use_cache else None
        self._disabled_stats = CacheStats()
        self.progress = progress
        self.require_cached = bool(require_cached)
        self.executed = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Cache accounting; a stable all-zero instance when caching is
        disabled, so callers can hold a reference either way."""
        return self.cache.stats if self.cache is not None else self._disabled_stats

    def _emit(self, event: RunEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    # ------------------------------------------------------------------
    # generic task execution
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        keys: Sequence[str | None] | None = None,
        labels: Sequence[str] | None = None,
    ) -> list[Any]:
        """Run ``fn(payload)`` for every payload, in order.

        ``fn`` must be a module-level callable (it crosses process
        boundaries). ``keys[i]`` is the cache key for payload ``i``
        (None disables caching for that task). The first failing task
        aborts the grid: its error is raised with a note naming the
        task, once the pool has cancelled the tasks no worker has taken
        and the running ones have finished.
        """
        payloads = list(payloads)
        total = len(payloads)
        keys = list(keys) if keys is not None else [None] * total
        labels = list(labels) if labels is not None else [
            f"task-{i}" for i in range(total)
        ]
        if not (len(keys) == len(labels) == total):
            raise ConfigurationError("payloads/keys/labels length mismatch")

        results: list[Any] = [None] * total
        pending: list[int] = []
        for i, key in enumerate(keys):
            cached = self.cache.load(key) if (self.cache and key) else None
            if cached is not None:
                results[i] = cached
                self._emit(RunEvent("hit", labels[i], i, total, key))
            else:
                pending.append(i)

        if pending and self.require_cached:
            missing = ", ".join(labels[i] for i in pending)
            raise CacheMissError(
                f"{len(pending)} of {total} task(s) have no usable cache "
                f"entry (missing or schema-stale): {missing}. "
                "Re-run them without --cached-only first."
            )

        def start(i: int) -> None:
            self._emit(RunEvent("start", labels[i], i, total, keys[i]))

        def finish(i: int, outcome: Callable[[], tuple[Any, float]]) -> None:
            try:
                results[i], seconds = outcome()
            except Exception as error:
                if hasattr(error, "add_note"):  # pragma: no branch
                    error.add_note(f"task {labels[i]!r} (index {i}) failed")
                raise
            self.executed += 1
            self._emit(RunEvent("done", labels[i], i, total, keys[i], seconds))
            if self.cache is not None and keys[i]:
                self.cache.store(keys[i], results[i])
                self._emit(RunEvent("stored", labels[i], i, total, keys[i]))

        if self.jobs == 1 or len(pending) <= 1:
            for i in pending:
                start(i)
                finish(i, partial(_timed_call, fn, payloads[i]))
            return results
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        try:
            futures = {}
            for i in pending:
                start(i)
                futures[pool.submit(_timed_call, fn, payloads[i])] = i
            for future in as_completed(futures):
                finish(futures[future], future.result)
        finally:
            # After a failure, drop the tasks no worker has taken and
            # wait only for the running ones; wait=False would leave
            # those workers alive after the raise.
            pool.shutdown(wait=True, cancel_futures=True)
        return results

    # ------------------------------------------------------------------
    # spec-addressed execution
    # ------------------------------------------------------------------
    def run_many(self, specs: Iterable[RunSpec]) -> list[RunArtifact]:
        """Execute run specs (cached, possibly parallel), in order."""
        from repro.experiments.runner import execute_spec

        specs = list(specs)
        artifacts = self.run_tasks(
            execute_spec,
            specs,
            keys=[s.digest() for s in specs],
            labels=[s.label for s in specs],
        )
        for spec, artifact in zip(specs, artifacts):
            if not isinstance(artifact, RunArtifact):
                raise ExperimentError(
                    f"spec {spec.label} produced {type(artifact).__name__}, "
                    "not a RunArtifact (corrupted cache entry?)"
                )
        return artifacts

    def run(self, spec: RunSpec) -> RunArtifact:
        """Execute one run spec (cached)."""
        return self.run_many([spec])[0]


def inline_engine(engine: ExperimentEngine | None) -> ExperimentEngine:
    """The engine to use when a caller passed None: sequential, uncached.

    Keeps library entry points (figure functions, ablations, sweeps)
    side-effect free by default — only callers that opt in (CLI,
    benchmarks) touch ``results/cache/``.
    """
    return engine if engine is not None else ExperimentEngine(
        jobs=1, use_cache=False
    )
