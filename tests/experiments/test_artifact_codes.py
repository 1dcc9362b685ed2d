"""The artifact's interaction column: uint16 codes plus a name table.

Artifacts written before the codes stored one ``<U`` string per request
under ``interactions``. Those bytes must still load through every
reader (plain pickle, the result cache, ``load_artifact``) with the
same signature, decoded names and per-interaction groups as the same
run stored as codes. ``by_interaction`` groups on the codes and must
return what the string grouping returned.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.control.trace import DecisionTrace
from repro.experiments.artifact import (
    DECODE_CHUNK,
    SCHEMA_VERSION,
    DecodedInteractions,
    RunArtifact,
    RunSpec,
    canonical,
    decode_interactions,
)
from repro.experiments.cache import ResultCache
from repro.experiments.persistence import load_artifact
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.monitoring.records import RequestLog
from repro.ntier.request import Request

#: Names of different lengths; the longest sets the decoded dtype.
POOL = ("ViewStory", "StoriesOfTheDay", "SearchInComments", "ViewComment")
LONGEST = "BrowseStoriesByCategory"


def build(rows, seed=0):
    """A new-layout artifact over ``(name, arrival, completion)`` rows,
    logged through :class:`RequestLog` as the runner logs them."""
    log = RequestLog()
    for i, (name, arrival, completion) in enumerate(rows):
        request = Request(i, name, arrival, {})
        request.completion = completion
        log.record(request)
    config = ScenarioConfig(name="codes", load_scale=1.0, seed=seed)
    return RunArtifact(
        spec=RunSpec("conscale", config),
        completion_times=log.completion_times,
        arrival_times=log.arrival_times,
        interaction_codes=log.interaction_codes,
        interaction_names=log.interaction_names,
        generated=len(log),
        completed=len(log),
        actions=DecisionTrace(),
        vm_times=np.zeros(0),
        vm_counts=np.zeros(0, dtype=int),
        vm_counts_by_tier={},
        cpu_series={},
    )


def artifact_over(codes, names, completion_times):
    """A new-layout artifact over the given columns, with no log."""
    config = ScenarioConfig(name="codes", load_scale=1.0)
    arrival_times = completion_times - 0.1
    return RunArtifact(
        spec=RunSpec("conscale", config),
        completion_times=completion_times,
        arrival_times=arrival_times,
        interaction_codes=codes,
        interaction_names=names,
        generated=codes.size,
        completed=codes.size,
        actions=DecisionTrace(),
        vm_times=np.zeros(0),
        vm_counts=np.zeros(0, dtype=int),
        vm_counts_by_tier={},
        cpu_series={},
    )


def random_rows(seed, count=400, early=None):
    """Random rows; ``early`` names a request type whose requests all
    complete before t = 1, so later cutoffs drop it entirely."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        arrival = float(rng.uniform(0.0, 10.0))
        rows.append((POOL[int(rng.integers(len(POOL)))], arrival,
                     arrival + float(rng.exponential(0.5))))
    if early is not None:
        rows += [(early, 0.1 * k, 0.1 * k + 0.05) for k in range(1, 5)]
        rng.shuffle(rows)
    return rows


def parent_layout(artifact, rows):
    """The same run in the layout written before the codes: the instance
    dict holds ``interactions``, the ``<U`` name of each request, in
    place of the codes and the name table, and the stored latency
    column of that time. It pickles as that dict."""
    state = {"latencies": artifact.latencies}
    for key, value in vars(artifact).items():
        if key == "interaction_codes":
            state["interactions"] = np.array([name for name, _, _ in rows], dtype=str)
        elif key != "interaction_names":
            state[key] = value
    old = object.__new__(RunArtifact)
    old.__dict__.update(state)
    return old


def assert_same_groups(ours, theirs):
    assert list(ours) == list(theirs)
    for name in theirs:
        assert ours[name].dtype == theirs[name].dtype, name
        assert ours[name].shape == theirs[name].shape, name
        assert ours[name].tobytes() == theirs[name].tobytes(), name


def assert_same_artifact(loaded, artifact):
    assert loaded.signature() == artifact.signature()
    assert loaded.interaction_codes.dtype == np.uint16
    ours, theirs = loaded.interactions, artifact.interactions
    assert ours.dtype == theirs.dtype
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()
    for after in (0.0, 5.0):
        assert_same_groups(loaded.by_interaction(after), artifact.by_interaction(after))


CASES = {
    "empty": [],
    "longest-once": [(LONGEST, 2.0, 2.5)] + random_rows(1, count=50),
    "random": random_rows(2),
}


@pytest.mark.parametrize("rows", CASES.values(), ids=CASES.keys())
def test_parent_layout_loads_with_the_same_content(rows, tmp_path):
    artifact = build(rows)
    names = [name for name, _, _ in rows]
    expected = np.array(names, dtype=str)
    assert artifact.interactions.dtype == expected.dtype
    assert artifact.interactions.tobytes() == expected.tobytes()
    if not rows:
        assert artifact.interactions.dtype == np.dtype("<U1")
        assert artifact.interactions.shape == (0,)
    old = parent_layout(artifact, rows)
    data = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"interaction_codes" not in data

    assert_same_artifact(pickle.loads(data), artifact)

    # A schema-7 envelope under the spec's key, as the cache wrote it.
    # A bump invalidates every such entry, and with them the need for
    # RunArtifact.__setstate__.
    assert SCHEMA_VERSION == 7
    cache = ResultCache(str(tmp_path / "cache"))
    key = artifact.spec.digest()
    cache.store(key, old)
    assert_same_artifact(ResultCache(cache.directory).load(key), artifact)

    path = tmp_path / "old.pkl"
    path.write_bytes(data)
    assert_same_artifact(load_artifact(str(path)), artifact)


def by_interaction_by_name(artifact, after):
    """The string grouping ``by_interaction`` did before the codes."""
    mask = artifact.completion_times >= after
    out = {}
    names = artifact.interactions[mask]
    lats = artifact.latencies[mask]
    for name in np.unique(names):
        out[str(name)] = lats[names == name]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_by_interaction_matches_the_string_grouping(seed):
    artifact = build(random_rows(seed, early=LONGEST), seed=seed)
    latest = float(artifact.completion_times.max())
    for after in (0.0, 1.0, 4.0, 8.0, latest, latest + 1.0):
        groups = artifact.by_interaction(after)
        assert_same_groups(groups, by_interaction_by_name(artifact, after))
    assert LONGEST in artifact.by_interaction(0.0)
    assert LONGEST not in artifact.by_interaction(1.0)
    assert artifact.by_interaction(latest + 1.0) == {}


def test_runner_hands_over_uint16_codes():
    config = ScenarioConfig(name="codes", trace_name="dual_phase",
                            load_scale=300.0, duration=60.0, seed=2)
    artifact = execute_spec(RunSpec("conscale", config))
    codes = artifact.interaction_codes
    assert codes.dtype == np.uint16
    assert codes.nbytes == 2 * artifact.completed
    assert len(set(artifact.interaction_names)) == len(artifact.interaction_names)
    assert set(codes.tolist()) == set(range(len(artifact.interaction_names)))
    counts = sum(v.size for v in artifact.by_interaction().values())
    assert counts == artifact.completed


# ----------------------------------------------------------------------
# the signature digests the codes as the decoded column, in chunks
# ----------------------------------------------------------------------

def assert_digests_as_decoded(codes, names):
    ours = canonical(DecodedInteractions(codes, names))
    assert ours == canonical(decode_interactions(codes, names))


def logged(batches):
    """Codes and name table of a log fed ``(picks, table)`` batches."""
    log = RequestLog()
    for step, (picks, table) in enumerate(batches):
        picks = np.asarray(picks, dtype=int)
        log.record_batch(np.full(picks.size, float(step)), step + 0.5, picks, table)
    return log.interaction_codes, log.interaction_names


def test_chunked_digest_of_an_empty_log():
    codes, names = logged([])
    assert names == ()
    assert canonical(DecodedInteractions(codes, names))[1:3] == ("<U1", (0,))
    assert_digests_as_decoded(codes, names)


def test_chunked_digest_of_a_single_name():
    assert_digests_as_decoded(*logged([(np.zeros(DECODE_CHUNK + 7), POOL[:1])]))


def test_chunked_digest_when_a_longer_name_first_appears_late():
    """The longest name sets the dtype of every chunk, also of the
    chunks decoded before its first request."""
    rng = np.random.default_rng(0)
    codes, names = logged([
        (rng.integers(len(POOL), size=2 * DECODE_CHUNK + 11), POOL),
        ([0, 1], (POOL[0], LONGEST)),
    ])
    assert names[-1] == LONGEST
    assert canonical(DecodedInteractions(codes, names))[1] == f"<U{len(LONGEST)}"
    assert_digests_as_decoded(codes, names)


@pytest.mark.parametrize(
    "count",
    [DECODE_CHUNK - 1, DECODE_CHUNK, DECODE_CHUNK + 1, 2 * DECODE_CHUNK + 3],
)
def test_chunked_digest_at_chunk_boundaries(count):
    rng = np.random.default_rng(count)
    names = POOL + (LONGEST,)
    codes = rng.integers(len(names), size=count).astype(np.uint16)
    assert_digests_as_decoded(codes, names)


def test_signature_never_decodes_the_whole_column():
    """One ``<U23`` name a request is 92 bytes; the decoded column of a
    million requests would be 92 MB, and its ``tobytes()`` copy as
    much again."""
    count = 1_000_000
    assert len(LONGEST) == 23
    artifact = artifact_over(
        np.zeros(count, dtype=np.uint16), (LONGEST,), np.linspace(1.0, 700.0, count)
    )
    expected = artifact.signature()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert artifact.signature() == expected
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16e6
