"""The experiment engine's contracts: spec identity, determinism,
parallel equivalence, cache round-trips, per-task timing, and how a
failing task stops the grid.

Runs here use a strongly reduced scale (load_scale 300, 60 s) so every
experiment finishes in well under a second.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.control.trace import DecisionTrace
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.artifact import (
    SCHEMA_VERSION,
    RunArtifact,
    RunOverrides,
    RunSpec,
    canonical,
    content_digest,
)
from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.runner import execute_spec, run_experiment
from repro.experiments.scenarios import ScenarioConfig


def small_config(**kwargs) -> ScenarioConfig:
    defaults = dict(
        name="engine-test", trace_name="dual_phase",
        load_scale=300.0, duration=60.0, seed=2,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


@pytest.fixture(scope="module")
def ec2_artifact() -> RunArtifact:
    return execute_spec(RunSpec("ec2", small_config()))


# ----------------------------------------------------------------------
# canonical encoding and spec identity
# ----------------------------------------------------------------------

def test_digest_stable_across_instances():
    a = RunSpec("ec2", small_config())
    b = RunSpec("ec2", small_config())
    assert a.digest() == b.digest()
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1  # usable as dict/set keys


def test_digest_separates_every_axis():
    base = RunSpec("ec2", small_config())
    assert RunSpec("conscale", small_config()).digest() != base.digest()
    assert RunSpec("ec2", small_config(seed=3)).digest() != base.digest()
    assert RunSpec("ec2", small_config(duration=61.0)).digest() != base.digest()
    with_headroom = RunSpec(
        "conscale", small_config(), RunOverrides.from_params({"headroom": 1.3})
    )
    assert with_headroom.digest() != RunSpec(
        "conscale", small_config()
    ).digest()


def test_unknown_framework_rejected():
    with pytest.raises(ConfigurationError):
        RunSpec("k8s", small_config())


def test_canonical_rejects_unknown_objects():
    class Opaque:
        pass

    with pytest.raises(ConfigurationError):
        canonical(Opaque())


def test_canonical_handles_floats_and_arrays():
    assert canonical(0.1) == canonical(0.1)
    assert canonical(0.1) != canonical(0.2)
    assert canonical(np.arange(3.0)) == canonical(np.arange(3.0))
    assert canonical(np.arange(3.0)) != canonical(np.arange(4.0))
    assert content_digest({"b": 1, "a": 2}) == content_digest({"a": 2, "b": 1})


# ----------------------------------------------------------------------
# determinism: same spec -> bit-identical artifact
# ----------------------------------------------------------------------

def test_same_spec_twice_is_bit_identical():
    spec = RunSpec("conscale", small_config())
    first = execute_spec(spec)
    second = execute_spec(spec)
    assert first.signature() == second.signature()
    assert np.array_equal(first.latencies, second.latencies)
    assert np.array_equal(first.vm_counts, second.vm_counts)
    assert first.estimates.keys() == second.estimates.keys()
    for tier, hist in first.estimates.items():
        other = second.estimates[tier]
        assert [(e.time, e.optimal) for e in hist] == [
            (e.time, e.optimal) for e in other
        ]


def test_parallel_matches_inline(tmp_path):
    specs = [RunSpec(fw, small_config()) for fw in ("ec2", "conscale")]
    inline = ExperimentEngine(jobs=1, use_cache=False).run_many(specs)
    parallel = ExperimentEngine(
        jobs=2, cache_dir=str(tmp_path / "cache")
    ).run_many(specs)
    for a, b in zip(inline, parallel):
        assert a.signature() == b.signature()


def test_artifact_pickle_roundtrip(ec2_artifact):
    clone = pickle.loads(pickle.dumps(ec2_artifact))
    assert clone.signature() == ec2_artifact.signature()
    assert clone.spec == ec2_artifact.spec


# ----------------------------------------------------------------------
# the result cache
# ----------------------------------------------------------------------

def test_cache_roundtrip_identical(tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = RunSpec("ec2", small_config())
    hot = ExperimentEngine(cache_dir=cache_dir)
    fresh = hot.run(spec)
    assert hot.stats.misses == 1 and hot.stats.stores == 1

    cold = ExperimentEngine(cache_dir=cache_dir)
    cached = cold.run(spec)
    assert cold.stats.hits == 1 and cold.executed == 0
    assert cached.signature() == fresh.signature()
    # figure-level consumption of a cached artifact matches in-memory
    fresh_bins = fresh.timeline(5.0)
    cached_bins = cached.timeline(5.0)
    assert fresh_bins == cached_bins
    assert cached.tail().p99 == fresh.tail().p99


def test_no_cache_writes_nothing(tmp_path):
    cache_dir = str(tmp_path / "cache")
    engine = ExperimentEngine(cache_dir=cache_dir, use_cache=False)
    engine.run(RunSpec("ec2", small_config()))
    assert not os.path.exists(cache_dir)
    assert engine.stats.hits == engine.stats.misses == 0


def test_cache_invalidates_corrupt_entry(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.store("deadbeef", {"x": 1})
    path = cache.path("deadbeef")
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.load("deadbeef") is None
    assert cache.stats.invalidations == 1
    assert not os.path.exists(path)


def test_cache_invalidates_schema_mismatch(tmp_path):
    cache = ResultCache(str(tmp_path))
    path = cache.path("cafef00d")
    os.makedirs(str(tmp_path), exist_ok=True)
    with open(path, "wb") as fh:
        pickle.dump(
            {"schema": SCHEMA_VERSION + 1, "key": "cafef00d", "payload": 1}, fh
        )
    assert cache.load("cafef00d") is None
    assert cache.stats.invalidations == 1


def test_cache_rejects_pathy_keys(tmp_path):
    cache = ResultCache(str(tmp_path))
    with pytest.raises(ConfigurationError):
        cache.path("../escape")


def test_cache_key_shape_validation(tmp_path):
    cache = ResultCache(str(tmp_path))
    for bad in (".", "..", "../escape", "a/b", "a\\b", "", "short",
                "DEADBEEFCAFE", "label with spaces", "x" * 65, 7):
        with pytest.raises(ConfigurationError):
            cache.path(bad)
    # digest-shaped keys pass: full SHA-256 and short hex test keys
    cache.store("deadbeef" * 8, {"v": 1})
    assert cache.load("deadbeef" * 8) == {"v": 1}
    assert cache.path("cafef00d").endswith("cafef00d.pkl")


# ----------------------------------------------------------------------
# running tasks: failures, timing, stats
# ----------------------------------------------------------------------

# Task functions are module-level: the pool pickles them by reference.

def _double(x: int) -> int:
    return 2 * x


def _sleep_for(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _raise_for_two(n: int) -> int:
    if n == 2:
        raise ExperimentError("boom")
    return n


def _fail_or_mark(marker: str | None) -> None:
    """Raise at once without a marker; else mark the start and sleep."""
    if marker is None:
        raise ExperimentError("first task fails")
    with open(marker, "w"):
        pass
    time.sleep(0.5)


def test_worker_errors_propagate(tmp_path):
    engine = ExperimentEngine(jobs=2, cache_dir=str(tmp_path))
    with pytest.raises(ExperimentError):
        engine.run_tasks(_raise_for_two, [1, 2], labels=["one", "two"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_failure_note_carries_task_label(tmp_path, jobs):
    engine = ExperimentEngine(jobs=jobs, cache_dir=str(tmp_path))
    with pytest.raises(ExperimentError, match="boom") as excinfo:
        engine.run_tasks(_raise_for_two, [1, 2], labels=["one", "two"])
    notes = getattr(excinfo.value, "__notes__", [])
    assert "task 'two' (index 1) failed" in notes


def test_first_failure_cancels_the_tasks_not_yet_started(tmp_path):
    """The pool stops at the first error: tasks no worker has taken are
    cancelled, and no worker process outlives the call."""
    markers = [str(tmp_path / f"task-{i}") for i in range(10)]
    engine = ExperimentEngine(jobs=2, use_cache=False)
    with pytest.raises(ExperimentError, match="first task fails"):
        engine.run_tasks(_fail_or_mark, [None, *markers])
    assert sum(os.path.exists(m) for m in markers) < 10
    assert multiprocessing.active_children() == []


def test_done_event_seconds_are_per_task_not_pool_wide():
    """A fast task's `done` event must report its own execution time,
    not elapsed time since the pool started (which includes worker
    spawn and the slow task's runtime)."""
    events = []
    engine = ExperimentEngine(jobs=2, use_cache=False, progress=events.append)
    engine.run_tasks(_sleep_for, [0.5, 0.01], labels=["slow", "fast"])
    seconds = {e.label: e.seconds for e in events if e.kind == "done"}
    assert seconds["slow"] >= 0.5
    assert seconds["fast"] < 0.25


def test_stats_is_a_stable_instance_without_cache():
    engine = ExperimentEngine(use_cache=False)
    held = engine.stats
    assert engine.stats is held
    engine.run_tasks(_double, [1])
    assert engine.stats is held
    assert held.hits == held.misses == held.stores == 0


def test_progress_events_sequence(tmp_path):
    events = []
    engine = ExperimentEngine(
        cache_dir=str(tmp_path / "c"), progress=events.append
    )
    spec = RunSpec("ec2", small_config())
    engine.run(spec)
    assert [e.kind for e in events] == ["start", "done", "stored"]
    engine2 = ExperimentEngine(
        cache_dir=str(tmp_path / "c"), progress=events.append
    )
    engine2.run(spec)
    assert events[-1].kind == "hit"
    assert all(e.label == spec.label for e in events)


# ----------------------------------------------------------------------
# artifact persistence helpers
# ----------------------------------------------------------------------

def test_save_load_artifact(tmp_path, ec2_artifact):
    from repro.experiments.persistence import load_artifact, save_artifact

    path = str(tmp_path / "run.pkl")
    save_artifact(ec2_artifact, path)
    loaded = load_artifact(path)
    assert loaded.signature() == ec2_artifact.signature()
    with open(path, "wb") as fh:
        fh.write(b"garbage")
    with pytest.raises(ExperimentError):
        load_artifact(path)


# ----------------------------------------------------------------------
# artifact surface used by figures/analysis
# ----------------------------------------------------------------------

def test_artifact_has_no_live_handles(ec2_artifact):
    assert not hasattr(ec2_artifact, "warehouse")
    assert not hasattr(ec2_artifact, "request_log")
    assert ec2_artifact.monitored_servers
    for name in ec2_artifact.monitored_servers:
        fine = ec2_artifact.fine_series[name]
        assert len(fine) > 0
        assert fine.t_end.shape == fine.throughput.shape


def test_run_experiment_wrapper_equals_spec_path(ec2_artifact):
    direct = run_experiment("ec2", small_config())
    assert direct.signature() == ec2_artifact.signature()


def test_headroom_override_changes_behaviour():
    base = execute_spec(RunSpec("conscale", small_config()))
    wide = execute_spec(
        RunSpec(
            "conscale", small_config(), RunOverrides.from_params({"headroom": 3.0})
        )
    )
    assert base.signature() != wide.signature()


# ----------------------------------------------------------------------
# decision-trace determinism and schema compatibility
# ----------------------------------------------------------------------

def test_trace_identical_sequential_parallel_cached(tmp_path):
    """The recorded decision trace is part of the determinism contract:
    inline, worker-process, and cache-returned artifacts agree."""
    spec = RunSpec("conscale", small_config())
    inline = ExperimentEngine(jobs=1, use_cache=False).run(spec)
    parallel = ExperimentEngine(
        jobs=2, cache_dir=str(tmp_path / "c")
    ).run_many([spec, RunSpec("ec2", small_config())])[0]
    cached = ExperimentEngine(cache_dir=str(tmp_path / "c")).run(spec)
    assert len(inline.actions) > 0
    assert inline.actions.keys() == parallel.actions.keys()
    assert inline.actions.keys() == cached.actions.keys()
    assert (
        content_digest(inline.actions.signature_key())
        == content_digest(parallel.actions.signature_key())
        == content_digest(cached.actions.signature_key())
    )


def test_trace_survives_artifact_pickle(ec2_artifact):
    clone = pickle.loads(pickle.dumps(ec2_artifact))
    assert clone.actions.all() == ec2_artifact.actions.all()
    assert clone.actions.noops(), "no-op ticks must survive serialisation"


def test_artifact_signature_covers_the_trace(ec2_artifact):
    """Tampering with the trace must change the artifact signature."""
    import copy
    from repro.control.events import DecisionEvent

    tampered = copy.copy(ec2_artifact)
    tampered.actions = DecisionTrace(
        ec2_artifact.actions.all()
        + [DecisionEvent(1e6, "scale_out_started", "db")]
    )
    assert tampered.signature() != ec2_artifact.signature()


def test_empty_trace_artifact_roundtrips(ec2_artifact):
    import copy

    bare = copy.copy(ec2_artifact)
    bare.actions = DecisionTrace()
    clone = pickle.loads(pickle.dumps(bare))
    assert len(clone.actions) == 0
    assert clone.signature() == bare.signature()


def test_other_schema_artifact_rejected(tmp_path, ec2_artifact):
    """Only current-schema artifacts load: older and future schemas are
    both rejected, naming the schema found."""
    import copy
    from repro.experiments.persistence import load_artifact, save_artifact

    current = str(tmp_path / "current.pkl")
    save_artifact(ec2_artifact, current)
    assert load_artifact(current).schema == SCHEMA_VERSION

    for schema in (1, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1):
        other = copy.copy(ec2_artifact)
        other.schema = schema
        path = str(tmp_path / f"schema{schema}.pkl")
        save_artifact(other, path)
        with pytest.raises(ExperimentError, match=f"schema {schema}"):
            load_artifact(path)


def test_result_summary_excludes_noops(ec2_artifact):
    from repro.experiments.persistence import result_summary

    summary = result_summary(ec2_artifact)
    assert summary["noop_ticks"] == len(ec2_artifact.actions.noops())
    assert all(a["kind"] != "noop" for a in summary["actions"])
    assert all("reason" in a and "source" in a for a in summary["actions"])


# ----------------------------------------------------------------------
# CLI integration (cheap grid)
# ----------------------------------------------------------------------

def test_cli_table1_jobs_and_cache(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    argv = [
        "table1", "--scale", "300", "--duration", "60", "--seed", "2",
        "--jobs", "2", "--traces", "dual_phase",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "dual_phase" in first
    assert "0 hit(s), 2 miss(es)" in first

    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "2 hit(s), 0 miss(es)" in second
    # identical table content from cache
    assert [ln for ln in second.splitlines() if "dual_phase" in ln] == [
        ln for ln in first.splitlines() if "dual_phase" in ln
    ]

    assert main(argv + ["--no-cache"]) == 0
    third = capsys.readouterr().out
    assert "hit(s)" not in third


@pytest.mark.parametrize("argv", [
    ["table1", "--backend", "process"],
    ["table1", "--queue-dir", "q"],
    ["worker", "q"],
], ids=["backend", "queue", "worker"])
def test_cli_rejects_the_removed_queue_surface(capsys, argv):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err
