"""The columnar SCT path against the record-based reference estimator.

Every estimate, drift report and bootstrap interval must equal the
reference's exactly — bit for bit, ``tp_max`` and ``plateau_util``
included — or both must refuse with the same :class:`EstimationError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.monitoring.interval import IntervalWindow
from repro.sct.bootstrap import bootstrap_q_lower
from repro.sct.drift import detect_drift
from repro.sct.model import SCTModel
from repro.sct.scatter import Scatter

from tests.monitoring.reference_monitor import IntervalSample
from tests.sct import reference_estimator as ref

#: Concurrency levels that stress the rounding and banding edges: idle
#: and near-idle intervals, exact halves (round half to even), and the
#: neighbourhood of the geometric band base of 16.
_EDGE_LEVELS = [0.0, 1e-9, 2e-9, 0.4, 0.5, 1.5, 2.5, 3.5, 15.5, 16.0, 16.5,
                17.0, 17.5, 18.5, 19.5, 20.5]

_levels = st.one_of(
    st.sampled_from(_EDGE_LEVELS),
    st.floats(0.0, 40.0),
    st.floats(40.0, 400.0),
)


@st.composite
def windows(draw):
    """A monitoring window: a few concurrency levels, a handful of
    intervals at each, interleaved in a random order."""
    n_levels = draw(st.integers(2, 12))
    levels = draw(st.lists(_levels, min_size=n_levels, max_size=n_levels))
    counts = draw(st.lists(st.integers(1, 16), min_size=n_levels,
                           max_size=n_levels))
    shape = draw(st.sampled_from(["curve", "tied", "constant", "zero"]))
    noise = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3]))
    jitter = draw(st.booleans())
    nan_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    stall_share = draw(st.sampled_from([0.0, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    q = np.repeat(np.asarray(levels, dtype=float), counts)
    if jitter:
        q = np.maximum(q + rng.uniform(-0.5, 0.5, q.size), 0.0)
    if shape == "curve":
        base = 100.0 * np.minimum(q, 10.0) / 10.0 / (1.0 + 2e-3 * q * q)
    elif shape == "tied":
        # two plateaus of exactly equal height: a tied peak
        base = np.where(q < 10.0, 50.0, 100.0)
    elif shape == "constant":
        base = np.full(q.size, 80.0)
    else:
        base = np.zeros(q.size)
    tp = base * (1.0 + rng.normal(0.0, noise, q.size))
    tp = np.where(rng.uniform(size=q.size) < stall_share, 0.0, np.abs(tp))
    completions = np.rint(tp * 0.05)
    rt = np.where(rng.uniform(size=q.size) < nan_share, np.nan,
                  0.01 * (1.0 + q) * rng.uniform(0.5, 1.5, q.size))
    util = np.minimum(1.0, q / 10.0) * rng.uniform(0.5, 1.0, q.size)
    order = rng.permutation(q.size)
    return IntervalWindow.from_columns(
        t_end=0.05 * np.arange(1, q.size + 1),
        concurrency=q[order], throughput=tp[order], response_time=rt[order],
        completions=completions[order], util=util[order],
    )


def _records(window: IntervalWindow) -> list[IntervalSample]:
    return [
        IntervalSample(t, q, tp, rt, int(c), {"cpu": u})
        for t, q, tp, rt, c, u in zip(
            window.t_end.tolist(), window.concurrency.tolist(),
            window.throughput.tolist(), window.response_time.tolist(),
            window.completions.tolist(), window.util.tolist(),
        )
    ]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EstimationError as exc:
        return ("EstimationError", str(exc))


@settings(max_examples=300, deadline=None)
@given(
    window=windows(),
    bucket_width=st.sampled_from([None, 1, 2]),
    min_samples=st.sampled_from([1, 4]),
    latency_threshold=st.sampled_from([None, 0.05, 0.5]),
    tolerance=st.sampled_from([0.05, 0.2]),
)
def test_estimate_matches_reference(window, bucket_width, min_samples,
                                    latency_threshold, tolerance):
    scatter = Scatter.from_window(window)
    tuples = ref.tuples_from_samples(_records(window))
    model = dict(tolerance=tolerance, min_samples=min_samples,
                 bucket_width=bucket_width, latency_threshold=latency_threshold)
    ours = _outcome(SCTModel(**model).estimate, scatter)
    theirs = _outcome(ref.estimate, tuples, **model)
    assert ours == theirs

    mid = len(window) // 2
    ours = detect_drift(Scatter.from_window(window[:mid]),
                        Scatter.from_window(window[mid:]),
                        min_samples=min_samples, bucket_width=bucket_width)
    theirs = ref.detect_drift(ref.tuples_from_samples(_records(window[:mid])),
                              ref.tuples_from_samples(_records(window[mid:])),
                              min_samples=min_samples, bucket_width=bucket_width)
    assert ours == theirs


@settings(max_examples=200, deadline=None)
@given(window=windows())
def test_scatter_matches_reference_tuples(window):
    """The idle rule, and the columns it keeps, match the record path."""
    scatter = Scatter.from_window(window)
    tuples = ref.tuples_from_samples(_records(window))
    assert len(scatter) == len(tuples)
    for name in ("q", "tp", "rt", "util"):
        column = getattr(scatter, name)
        expected = np.array([getattr(t, name) for t in tuples], dtype=float)
        assert np.array_equal(column, expected, equal_nan=True), name


def _curve(levels, scale=1.0, a_sat=10.0, noise=0.05, n=12, seed=0):
    rng = np.random.default_rng(seed)
    q = np.repeat(np.asarray(levels, dtype=float), n)
    q = q + rng.uniform(-0.4, 0.4, q.size)
    tp = 100.0 * scale * np.minimum(q, a_sat) / a_sat / (1 + 1e-3 * q * q)
    order = rng.permutation(q.size)
    return Scatter(
        q=q[order],
        tp=(tp * (1 + rng.normal(0, noise, q.size)))[order],
        rt=np.where(rng.uniform(size=q.size) < 0.1, np.nan, 0.01 * q)[order],
        util=np.minimum(1.0, q / a_sat)[order],
    )


_DRIFT_CASES = {
    "stationary": (_curve(range(1, 40), seed=0), _curve(range(1, 40), seed=1)),
    "doubling": (_curve(range(1, 40), seed=0),
                 _curve(range(1, 40), scale=2.0, a_sat=20.0, seed=1)),
    "degrading": (_curve(range(1, 40), seed=0),
                  _curve(range(1, 40), scale=0.5, seed=1)),
    "small-shift": (_curve(range(1, 40), seed=0),
                    _curve(range(1, 40), scale=1.05, seed=1)),
    "disjoint": (_curve(range(1, 6), seed=0), _curve(range(30, 36), seed=1)),
}


@pytest.mark.parametrize("bucket_width", [None, 1, 2])
@pytest.mark.parametrize("case", sorted(_DRIFT_CASES))
def test_drift_matches_reference(case, bucket_width):
    old, new = _DRIFT_CASES[case]
    ours = detect_drift(old, new, bucket_width=bucket_width)
    theirs = ref.detect_drift(ref.tuples_of(old), ref.tuples_of(new),
                              bucket_width=bucket_width)
    assert ours == theirs


@pytest.mark.parametrize("bucket_width", [None, 2])
@pytest.mark.parametrize("noise", [0.02, 0.3])
def test_bootstrap_matches_reference(noise, bucket_width):
    scatter = _curve(range(1, 30), noise=noise, n=8, seed=3)
    ours = bootstrap_q_lower(scatter, SCTModel(bucket_width=bucket_width),
                             n_resamples=40, rng=np.random.default_rng(5))
    theirs = ref.bootstrap_q_lower(ref.tuples_of(scatter),
                                   np.random.default_rng(5), n_resamples=40,
                                   bucket_width=bucket_width)
    assert ours == theirs
