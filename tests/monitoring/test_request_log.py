"""The columnar request log against the list-backed reference log.

Both logs get the same interleaving of single records, fluid-step
batches and reads; the reference gets each batch as the equivalent
:class:`Request` objects. Every read must return equal arrays with
equal dtypes, byte for byte; the log's interaction codes are compared
decoded, as the artifact decodes them.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.control.trace import DecisionTrace
from repro.errors import MonitoringError
from repro.experiments.artifact import RunArtifact, RunSpec, decode_interactions
from repro.experiments.scenarios import ScenarioConfig
from repro.monitoring.records import RequestLog
from repro.ntier.request import Request

from tests.monitoring.reference_log import ListRequestLog

OUTPUTS = ("arrival_times", "completion_times", "response_times", "interactions")

NAMES = ("ViewStory", "StoriesOfTheDay", "SearchInComments")
LATE_NAME = "BrowseStoriesByCategory"  # longer than every name in NAMES


def completed(req_id, name, arrival, completion):
    request = Request(req_id, name, arrival, {})
    request.completion = completion
    return request


def decoded(log):
    return decode_interactions(log.interaction_codes, log.interaction_names)


def read(log):
    """The log's outputs, named like the reference log's."""
    return {
        "arrival_times": log.arrival_times,
        "completion_times": log.completion_times,
        "response_times": log.response_times,
        "interactions": decoded(log),
        "interaction_codes": log.interaction_codes,
    }


def assert_same(log, ref):
    assert len(log) == len(ref)
    ours = read(log)
    for output in OUTPUTS:
        theirs = getattr(ref, output)
        assert ours[output].dtype == theirs.dtype, output
        assert ours[output].shape == theirs.shape, output
        assert ours[output].tobytes() == theirs.tobytes(), output
    assert ours["interaction_codes"].dtype == np.uint16


class Pair:
    """Feeds one columnar and one reference log the same requests."""

    def __init__(self):
        self.log, self.ref = RequestLog(), ListRequestLog()
        # Interaction names in the order the log codes them: a single
        # record's name when first seen, a batch's new names in the
        # order of the batch's name table.
        self.seen = {}
        # Arrays read earlier, kept alive across later appends with the
        # bytes they held when read.
        self.held = []

    def record(self, name, arrival, completion):
        request = completed(len(self.ref), name, arrival, completion)
        self.log.record(request)
        self.ref.record(request)
        self.seen.setdefault(name)

    def batch(self, completion, latencies, picks, names):
        arrivals = completion - np.asarray(latencies, dtype=float)
        self.log.record_batch(arrivals, completion, np.asarray(picks), names)
        for arrival, pick in zip(arrivals, picks):
            self.ref.record(
                completed(-1 - len(self.ref), names[pick], float(arrival), completion)
            )
        for pick in np.unique(picks):
            self.seen.setdefault(names[int(pick)])

    def check(self):
        assert_same(self.log, self.ref)
        assert self.log.interaction_names == tuple(self.seen)
        for array, snapshot in self.held:
            assert array.tobytes() == snapshot
        self.held = [(array, array.tobytes()) for array in read(self.log).values()]


def test_empty_log():
    pair = Pair()
    pair.check()
    assert decoded(pair.log).dtype == np.dtype("<U1")
    assert decoded(pair.log).shape == (0,)
    assert pair.log.interaction_names == ()


def test_zero_size_batch():
    pair = Pair()
    pair.batch(1.0, [], [], NAMES)
    pair.check()
    pair.record("ViewStory", 0.5, 1.5)
    pair.batch(2.0, np.zeros(0), np.zeros(0, dtype=int), NAMES)
    pair.check()


def test_longer_name_first_appears_late():
    pair = Pair()
    pair.record("ViewStory", 0.0, 0.25)
    pair.batch(1.0, [0.1, 0.2, 0.3], [0, 0, 1], NAMES)
    pair.check()
    assert decoded(pair.log).dtype == np.dtype(f"<U{len('StoriesOfTheDay')}")
    pair.batch(2.0, [0.4, 0.5], [1, 0], (NAMES[0], LATE_NAME))
    pair.check()
    assert decoded(pair.log).dtype == np.dtype(f"<U{len(LATE_NAME)}")


def test_unpicked_names_do_not_widen_the_dtype():
    pair = Pair()
    pair.batch(1.0, [0.1, 0.2], [0, 0], ("ViewStory", LATE_NAME))
    pair.check()
    assert decoded(pair.log).dtype == np.dtype(f"<U{len('ViewStory')}")


def test_single_name_log():
    pair = Pair()
    for i in range(5):
        pair.record("ViewStory", float(i), i + 0.3)
    pair.batch(6.0, [0.5] * 4, [0] * 4, ("ViewStory",))
    pair.check()


@pytest.mark.parametrize("seed", range(40))
def test_random_interleaving_with_reads_between_appends(seed):
    """Arrays read between appends stay valid and do not pin the
    columns: a live buffer view would make the next append raise
    ``BufferError``."""
    rng = np.random.default_rng(seed)
    names = NAMES + (LATE_NAME,)
    pair = Pair()
    now = 0.0
    for _ in range(300):
        now += float(rng.exponential(0.05))
        op = rng.integers(4)
        if op == 0:
            name = names[int(rng.integers(len(names)))]
            pair.record(name, now - float(rng.exponential(0.2)), now)
        elif op == 1:
            size = int(rng.integers(0, 40))
            # The fluid integrator's own name table is the mix's.
            table = names[:3] if now < 5.0 else names
            pair.batch(
                now,
                rng.gamma(2.0, 0.1, size=size),
                rng.integers(len(table), size=size),
                table,
            )
        else:
            pair.check()
    pair.check()


def test_name_table_overflow_raises_before_appending():
    """Codes are uint16: the 65,537th name is refused, not wrapped."""
    log = RequestLog()
    for i in range(1 << 16):
        log.record(completed(i, f"name{i}", 0.0, 1.0))
    with pytest.raises(MonitoringError):
        log.record(completed(0, "one-too-many", 0.0, 1.0))
    with pytest.raises(MonitoringError):
        log.record_batch(np.zeros(1), 1.0, np.zeros(1, dtype=int), ["one-too-many"])
    assert len(log) == len(log.interaction_codes) == len(log.interaction_names) == 1 << 16


def test_batch_shape_mismatch_raises():
    log = RequestLog()
    with pytest.raises(MonitoringError):
        log.record_batch(np.zeros(3), 1.0, np.zeros(2, dtype=int), NAMES)


def fill(log, path, count, step=500):
    """Log ``count`` requests one at a time or in fluid-step batches."""
    if path == "record":
        for i in range(count):
            log.record(completed(i, NAMES[i % 3], i * 1e-3, i * 1e-3 + 0.25))
    else:
        picks = np.arange(step) % len(NAMES)
        for i in range(0, count, step):
            now = i * 1e-3
            log.record_batch(now - np.full(step, 0.25), now, picks, NAMES)
    return log


@pytest.mark.parametrize("path", ["record", "record_batch"])
def test_retained_memory_per_record_is_bounded(path):
    """The one structure that grows with request count: once the
    requests are gone, a record keeps at most 24 bytes alive (two
    float64 columns and a uint16 code are 18; ``array`` over-allocates
    about 6%)."""
    count = 200_000
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        log = fill(RequestLog(), path, count)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(log) == count
    assert retained / count <= 24.0


def artifact_of(log, load_scale=1.0):
    """The artifact the runner would build from ``log``."""
    config = ScenarioConfig(name="log-bytes", load_scale=load_scale)
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


def pickled_artifact_bytes(log):
    """Size of the pickled artifact the runner would build from ``log``."""
    return len(pickle.dumps(artifact_of(log), protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("path", ["record", "record_batch"])
def test_pickled_artifact_bytes_per_request_are_bounded(path):
    """The artifact carries two float64 columns and a uint16 code per
    request (18 bytes): the latencies are derived on read. A stored
    latency column would add 8 bytes, and one ``<U`` name per request
    4 bytes a character."""
    count = 200_000
    empty = pickled_artifact_bytes(RequestLog())
    full = pickled_artifact_bytes(fill(RequestLog(), path, count))
    assert (full - empty) / count <= 20.0


# ----------------------------------------------------------------------
# handover: a closed log's columns are views, not copies
# ----------------------------------------------------------------------

COLUMNS = ("arrival_times", "completion_times", "interaction_codes")


@pytest.mark.parametrize("path", ["record", "record_batch"])
def test_closed_log_refuses_records(path):
    log = fill(RequestLog(), path, 1_000)
    log.close()
    with pytest.raises(MonitoringError, match="closed"):
        log.record(completed(0, "ViewStory", 0.0, 1.0))
    with pytest.raises(MonitoringError, match="closed"):
        log.record_batch(np.zeros(2), 1.0, np.zeros(2, dtype=int), NAMES)
    assert len(log) == len(log.interaction_codes) == 1_000


@pytest.mark.parametrize("seed", [0, 1])
def test_closed_columns_are_views_of_one_buffer(seed):
    """After ``close()`` two reads of a column share its memory, are
    writeable (pickle writes a read-only array as other bytes) and
    still hold exactly the reference log's values."""
    rng = np.random.default_rng(seed)
    table = NAMES + (LATE_NAME,)
    pair = Pair()
    for step, name in enumerate(table):
        pair.record(name, 0.01 * step, 0.05)
    for step in range(40):
        now = 0.1 * (step + 1)
        pair.record(table[step % 4], now - 0.05, now)
        size = int(rng.integers(0, 30))
        pair.batch(now, rng.gamma(2.0, 0.1, size=size),
                   rng.integers(len(table), size=size), table)
    pair.check()
    pair.log.close()
    pair.check()
    for column in COLUMNS:
        first, second = getattr(pair.log, column), getattr(pair.log, column)
        assert np.shares_memory(first, second), column
        assert first.flags.writeable, column
    assert not np.shares_memory(pair.log.response_times, pair.log.completion_times)


def test_an_empty_closed_log_reads_empty_columns():
    log = RequestLog()
    log.close()
    for column in COLUMNS + ("response_times",):
        assert getattr(log, column).shape == (0,), column
    assert artifact_of(log).interactions.dtype == np.dtype("<U1")


@pytest.mark.parametrize("path", ["record", "record_batch"])
def test_artifact_from_views_pickles_like_one_from_copies(path):
    """The runner hands a closed log's views to the artifact; the cache
    entry must hold the bytes the copies of an open log gave."""
    log = fill(RequestLog(), path, 5_000)
    copies = pickle.dumps(artifact_of(log, load_scale=50.0),
                          protocol=pickle.HIGHEST_PROTOCOL)
    log.close()
    views = pickle.dumps(artifact_of(log, load_scale=50.0),
                         protocol=pickle.HIGHEST_PROTOCOL)
    assert views == copies
