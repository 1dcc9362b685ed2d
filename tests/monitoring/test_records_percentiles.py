"""Tests for request logs, timelines, and tail-latency helpers.

The request-analysis views (percentile, timeline, per-interaction
latencies) live on :class:`RunArtifact`; their tests build one from
plain arrays.
"""

import math

import numpy as np
import pytest

from repro.control.trace import DecisionTrace
from repro.errors import ExperimentError, MonitoringError
from repro.experiments.artifact import DRAIN_GRACE, RunArtifact, RunSpec
from repro.experiments.scenarios import ScenarioConfig
from repro.monitoring.percentiles import tail_summary
from repro.monitoring.records import RequestLog
from repro.ntier.request import Request


def completed_request(req_id, arrival, completion):
    req = Request(req_id, "X", arrival, {})
    req.completion = completion
    return req


def test_record_requires_completion():
    log = RequestLog()
    with pytest.raises(MonitoringError):
        log.record(Request(0, "X", 0.0, {}))


def test_record_and_arrays():
    log = RequestLog()
    log.record(completed_request(0, 0.0, 0.5))
    log.record(completed_request(1, 1.0, 1.2))
    assert len(log) == 2
    assert list(log.response_times) == pytest.approx([0.5, 0.2])
    assert list(log.completion_times) == [0.5, 1.2]
    assert list(log.arrival_times) == [0.0, 1.0]


def run_artifact(rows, *, warmup=0.0, duration=10.0):
    """A RunArtifact over ``(interaction, arrival, completion)`` rows, at
    load scale 1 so latencies and throughputs are reported unscaled."""
    names = [name for name, _, _ in rows]
    table = tuple(dict.fromkeys(names))  # first-seen order, like RequestLog
    arrivals = np.array([a for _, a, _ in rows], dtype=float)
    completions = np.array([c for _, _, c in rows], dtype=float)
    config = ScenarioConfig(
        name="records", load_scale=1.0, duration=duration, warmup=warmup
    )
    return RunArtifact(
        spec=RunSpec("conscale", config),
        completion_times=completions,
        arrival_times=arrivals,
        interaction_codes=np.array([table.index(n) for n in names], dtype=np.uint16),
        interaction_names=table,
        generated=len(rows),
        completed=len(rows),
        actions=DecisionTrace(),
        vm_times=np.zeros(0),
        vm_counts=np.zeros(0, dtype=int),
        vm_counts_by_tier={},
        cpu_series={},
    )


def test_percentile_with_warmup_cutoff():
    rows = [("X", 0.0, 10.0)]  # rt 10, completes at 10
    rows += [("X", 20.0, 20.0 + 0.1 * i) for i in range(1, 11)]
    # including warm-up, p99 is dominated by the 10 s outlier
    assert run_artifact(rows).percentile(99) > 5.0
    # excluding it, all latencies <= 1.0
    assert run_artifact(rows, warmup=15.0).percentile(99) <= 1.0


def test_percentile_empty_window_raises():
    # p95 is a tail-summary field and p90 is not; both take the same
    # checked path.
    for q in (95, 90):
        with pytest.raises(ExperimentError):
            run_artifact([]).percentile(q)
        with pytest.raises(ExperimentError):
            run_artifact([("X", 0.0, 1.0)], warmup=100.0).percentile(q)


def test_timeline_bins():
    # completes 0.5..9.5; bins run over duration + drain grace
    artifact = run_artifact([("X", 0.0, 0.5 + i) for i in range(10)])
    bins = artifact.timeline(bin_width=5.0)
    assert len(bins) == math.ceil((10.0 + DRAIN_GRACE) / 5.0)
    assert bins[0].completions == 5
    assert bins[0].throughput == pytest.approx(1.0)
    assert bins[1].completions == 5
    assert sum(b.completions for b in bins[2:]) == 0


def test_timeline_empty_bins_are_nan():
    bins = run_artifact([("X", 0.0, 0.5)]).timeline(bin_width=1.0)
    assert bins[0].completions == 1
    assert math.isnan(bins[1].mean_rt)
    assert bins[1].throughput == 0.0


def test_timeline_validation():
    with pytest.raises(ExperimentError):
        run_artifact([]).timeline(bin_width=0.0)


# ----------------------------------------------------------------------
# percentiles helpers
# ----------------------------------------------------------------------

def test_tail_summary_fields():
    values = np.arange(1, 101, dtype=float)  # 1..100
    t = tail_summary(values)
    assert t.count == 100
    assert t.mean == pytest.approx(50.5)
    assert t.p50 == pytest.approx(50.5)
    assert t.p95 == pytest.approx(95.05)
    assert t.p99 == pytest.approx(99.01)
    assert t.max == 100.0


def test_tail_summary_empty_raises():
    with pytest.raises(MonitoringError):
        tail_summary([])


def test_tail_summary_ordering_invariant():
    rng = np.random.default_rng(0)
    t = tail_summary(rng.exponential(1.0, 500))
    assert t.p50 <= t.p95 <= t.p99 <= t.max


def test_by_interaction_groups_latencies():
    artifact = run_artifact(
        [
            ("ViewStory", 0.0, 0.1),
            ("ViewStory", 0.0, 0.2),
            ("SearchInStories", 0.0, 0.9),
        ]
    )
    groups = artifact.by_interaction()
    assert set(groups) == {"ViewStory", "SearchInStories"}
    assert list(groups["ViewStory"]) == pytest.approx([0.1, 0.2])
    assert list(groups["SearchInStories"]) == pytest.approx([0.9])


def test_by_interaction_respects_warmup():
    artifact = run_artifact([("ViewStory", 0.0, 1.0), ("ViewStory", 50.0, 51.0)])
    groups = artifact.by_interaction(after=10.0)
    assert len(groups["ViewStory"]) == 1
