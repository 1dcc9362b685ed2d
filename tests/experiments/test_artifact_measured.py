"""The artifact stores only measured columns.

``latencies`` is derived on read from the completion and arrival
columns, with the operations the runner used to store it, and
``signature()`` digests it in chunks (:class:`DerivedLatencies`) to the
entry of the whole column. Entries written while the column was stored
must load through every reader with the same signature and keep no
stored column. The fine series pass from the monitors as writeable views
of their blocks and must pickle like copies.
"""

from __future__ import annotations

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.control.trace import DecisionTrace
from repro.experiments.artifact import (
    DECODE_CHUNK,
    SCHEMA_VERSION,
    DerivedLatencies,
    FineSeries,
    RunArtifact,
    RunSpec,
    canonical,
)
from repro.experiments.cache import ResultCache
from repro.experiments.persistence import load_artifact
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig

#: Not a power of two, so the division rounds.
LOAD_SCALE = 300.0
FLOAT_COLUMNS = ("t_end", "concurrency", "throughput", "response_time")


def stored_latencies(completion_times, arrival_times, rt_scale):
    """The column the runner stored before it was derived on read."""
    latencies = completion_times - arrival_times
    latencies /= rt_scale
    return latencies


def columns(count, seed=0):
    """Random ``(completion_times, arrival_times)`` of ``count`` requests."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 700.0, size=count))
    return arrivals + rng.gamma(2.0, 0.05, size=count), arrivals


def artifact_over(completion_times, arrival_times, load_scale=LOAD_SCALE):
    config = ScenarioConfig(name="measured", load_scale=load_scale)
    count = completion_times.size
    return RunArtifact(
        spec=RunSpec("conscale", config),
        completion_times=completion_times,
        arrival_times=arrival_times,
        interaction_codes=np.zeros(count, dtype=np.uint16),
        interaction_names=("ViewStory",) if count else (),
        generated=count,
        completed=count,
        actions=DecisionTrace(),
        vm_times=np.zeros(0),
        vm_counts=np.zeros(0, dtype=int),
        vm_counts_by_tier={},
        cpu_series={},
    )


@pytest.fixture(scope="module")
def run():
    config = ScenarioConfig(name="measured", trace_name="dual_phase",
                            load_scale=LOAD_SCALE, duration=60.0, seed=2)
    return execute_spec(RunSpec("conscale", config))


# ----------------------------------------------------------------------
# latencies are derived on read
# ----------------------------------------------------------------------

def test_a_run_derives_the_latencies_it_used_to_store(run):
    assert "latencies" not in vars(run)
    expected = stored_latencies(
        run.completion_times, run.arrival_times, run.config.rt_scale
    )
    assert run.latencies.dtype == np.float64
    assert run.latencies.tobytes() == expected.tobytes()
    assert run.latencies.size == run.completed > 0
    # Each read is a new array: changing one leaves the artifact alone.
    run.latencies[:] = 0.0
    assert run.latencies.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "count",
    [0, 1, DECODE_CHUNK - 1, DECODE_CHUNK, DECODE_CHUNK + 1, 2 * DECODE_CHUNK + 3],
)
def test_chunked_digest_equals_the_whole_column(count):
    completion_times, arrival_times = columns(count, seed=count)
    whole = stored_latencies(completion_times, arrival_times, LOAD_SCALE)
    ours = canonical(DerivedLatencies(completion_times, arrival_times, LOAD_SCALE))
    assert ours == canonical(whole)
    assert ours[1:3] == ("float64", (count,))


def parent_layout(artifact):
    """The same run in the layout written before the latencies were
    derived: the instance dict holds the stored column after ``spec``.
    It pickles as that dict."""
    state = {}
    for key, value in vars(artifact).items():
        state[key] = value
        if key == "spec":
            state["latencies"] = artifact.latencies
    old = object.__new__(RunArtifact)
    old.__dict__.update(state)
    return old


def assert_same_artifact(loaded, artifact):
    assert "latencies" not in vars(loaded)
    assert loaded.signature() == artifact.signature()
    assert loaded.latencies.tobytes() == artifact.latencies.tobytes()


@pytest.mark.parametrize("count", [0, 5_000])
def test_parent_layout_loads_without_the_stored_column(count, tmp_path):
    artifact = artifact_over(*columns(count))
    old = parent_layout(artifact)
    data = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"latencies" in data
    assert_same_artifact(pickle.loads(data), artifact)

    # A schema-7 envelope under the spec's key, as the cache wrote it.
    assert SCHEMA_VERSION == 7
    cache = ResultCache(str(tmp_path / "cache"))
    key = artifact.spec.digest()
    cache.store(key, old)
    assert_same_artifact(ResultCache(cache.directory).load(key), artifact)

    path = tmp_path / "old.pkl"
    path.write_bytes(data)
    assert_same_artifact(load_artifact(str(path)), artifact)


def test_a_run_in_the_parent_layout_keeps_its_signature(run, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    key = run.spec.digest()
    cache.store(key, parent_layout(run))
    assert_same_artifact(ResultCache(cache.directory).load(key), run)


def test_signing_never_builds_the_latency_column():
    """A million requests' latencies are 8 MB; signing derives and
    hashes them a chunk at a time (1 MB of float64 at most)."""
    count = 1_000_000
    artifact = artifact_over(*columns(count))
    expected = artifact.signature()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert artifact.signature() == expected
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ----------------------------------------------------------------------
# fine series pass from the monitors as views
# ----------------------------------------------------------------------

def test_fine_series_are_writeable_views_of_one_block(run):
    assert run.fine_series
    for series in run.fine_series.values():
        block = series.t_end.base
        assert block is not None
        for name in FLOAT_COLUMNS:
            column = getattr(series, name)
            assert column.flags.writeable, (series.server, name)
            assert column.base is block, (series.server, name)
        assert series.completions.dtype == np.int64
        assert series.completions.base is None


def with_copied_fine_series(artifact):
    return dataclasses.replace(artifact, fine_series={
        name: FineSeries(
            server=s.server, tier=s.tier,
            **{col: getattr(s, col).copy() for col in FLOAT_COLUMNS},
            completions=s.completions.copy(),
        )
        for name, s in artifact.fine_series.items()
    })


def test_views_pickle_like_copies_and_load_writeable(run):
    views = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
    copies = pickle.dumps(with_copied_fine_series(run),
                          protocol=pickle.HIGHEST_PROTOCOL)
    assert views == copies
    loaded = pickle.loads(views)
    assert loaded.signature() == run.signature()
    for series in loaded.fine_series.values():
        for name in FLOAT_COLUMNS + ("completions",):
            assert getattr(series, name).flags.writeable, (series.server, name)
