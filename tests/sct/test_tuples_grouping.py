"""Tests for the SCT scatter and concurrency grouping."""

import math

import numpy as np
import pytest

from repro.monitoring.interval import IntervalMonitor, IntervalWindow
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sct.grouping import band_representative, bucketize
from repro.sct.scatter import Scatter
from repro.sim.engine import Simulator


def window(qs, tps, rts=None, utils=None):
    n = len(qs)
    return IntervalWindow.from_columns(
        t_end=np.arange(1.0, n + 1.0),
        concurrency=qs,
        throughput=tps,
        response_time=rts if rts is not None else [0.01] * n,
        completions=[float(tp > 0) for tp in tps],
        util=utils if utils is not None else [1.0] * n,
    )


# ----------------------------------------------------------------------
# scatter
# ----------------------------------------------------------------------

def test_idle_intervals_dropped():
    out = Scatter.from_window(window([0.0, 2.0], [0.0, 10.0]))
    assert len(out) == 1
    assert out.q[0] == 2.0


def test_zero_tp_with_concurrency_kept():
    """Stalled-server evidence must not be discarded."""
    out = Scatter.from_window(window([5.0], [0.0], rts=[math.nan]))
    assert len(out) == 1
    assert out.tp[0] == 0.0
    assert math.isnan(out.rt[0])


def test_util_takes_max_resource():
    """A two-resource server's util column is its busiest resource's."""
    sim = Simulator()
    capacity = CapacityModel(
        [Resource("cpu", 1.0, 0.4), Resource("disk", 1.0, 0.9)], ContentionModel()
    )
    server = Server(sim, ServerConfig("db-1", "db", capacity, 10))
    mon = IntervalMonitor(sim, server, interval=0.1)
    request = Request(0, "X", 0.0, {"db": 1.0})
    sim.schedule(0.0, server.admit, request, 1.0, lambda r: None, True)
    sim.run(until=0.15)
    (util,) = Scatter.from_window(mon.samples).util.tolist()
    assert util == pytest.approx(0.9)


def test_scatter_indexing():
    s = Scatter.from_window(window([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]))
    assert s[1:].q.tolist() == [2.0, 3.0]
    assert s[np.array([2, 0, 2])].tp.tolist() == [30.0, 10.0, 30.0]


# ----------------------------------------------------------------------
# banding
# ----------------------------------------------------------------------

def test_band_exact_below_base():
    for q in range(1, 17):
        assert band_representative(q) == q


def test_band_monotone_nondecreasing():
    reps = [band_representative(q) for q in range(1, 500)]
    assert all(a <= b for a, b in zip(reps, reps[1:]))


def test_band_groups_high_levels():
    reps = {band_representative(q) for q in range(60, 70)}
    assert len(reps) < 10  # several levels share a band


def test_band_representative_within_band():
    for q in (20, 40, 80, 200):
        rep = band_representative(q)
        assert abs(rep - q) / q < 0.15  # representative stays close


def test_geometric_bands_use_the_scalar_mapping():
    """Through the first cached table and a larger one, every level's
    band is the scalar function's."""
    small = [1.0, 16.0, 17.0, 40.0, 399.0, 16.0, 1000.0]
    for qs in (np.array(small), np.array(small + [1023.0, 1024.0, 5000.0])):
        ones = np.ones(qs.size)
        bands = bucketize(Scatter(qs, ones, ones, ones), min_samples=1)
        assert bands.q == sorted({band_representative(int(q)) for q in qs})


# ----------------------------------------------------------------------
# bucketize
# ----------------------------------------------------------------------

def scatter_at(*groups):
    """A scatter of ``(q, n)`` groups: n points at concurrency q."""
    q = np.array([float(level) for level, n in groups for _ in range(n)])
    return Scatter(q=q, tp=np.full(q.size, 10.0), rt=np.full(q.size, 0.01),
                   util=np.ones(q.size))


def test_min_samples_filter():
    bands = bucketize(scatter_at((3, 2), (5, 4)), min_samples=3, width=1)
    assert bands.q == [5]


def test_width_one_exact_levels():
    bands = bucketize(scatter_at((3, 3), (4, 3)), min_samples=3, width=1)
    assert bands.q == [3, 4]


def test_uniform_width_merges():
    bands = bucketize(scatter_at((3, 2), (4, 2)), min_samples=3, width=2)
    assert len(bands) == 1
    assert bands.tp_moments(0)[2] == 4


def test_invalid_width():
    with pytest.raises(ValueError):
        bucketize(scatter_at(), width=0)


def test_empty_scatter_has_no_bands():
    assert len(bucketize(scatter_at(), min_samples=1)) == 0


def test_bucket_statistics():
    s = Scatter(q=np.full(3, 5.0), tp=np.array([10.0, 14.0, 12.0]),
                rt=np.array([0.01, 0.02, math.nan]),
                util=np.array([1.0, 0.8, 0.9]))
    bands = bucketize(s, min_samples=3, width=1)
    mean, var, n = bands.tp_moments(0)
    assert bands.mean_tp[0] == mean == pytest.approx(12.0)
    assert math.sqrt(var) == pytest.approx(2.0)  # ddof=1
    assert n == 3
    assert bands.mean_rt(0) == pytest.approx(0.015)  # NaN RT excluded
    assert bands.mean_util(0) == pytest.approx(0.9)


def test_single_point_band_has_zero_variance():
    bands = bucketize(scatter_at((5, 1)), min_samples=1)
    assert bands.tp_moments(0) == (10.0, 0.0, 1)


def test_bucket_mean_rt_all_nan():
    s = Scatter(q=np.full(3, 5.0), tp=np.full(3, 10.0),
                rt=np.full(3, math.nan), util=np.ones(3))
    bands = bucketize(s, min_samples=3, width=1)
    assert math.isnan(bands.mean_rt(0))


def test_bands_keep_scatter_order():
    """Each band's points stay in scatter order (the summation order)."""
    s = Scatter(q=np.array([7.0, 3.0, 7.0, 3.0]),
                tp=np.array([1.0, 2.0, 3.0, 4.0]),
                rt=np.zeros(4), util=np.ones(4))
    bands = bucketize(s, min_samples=1, width=1)
    assert bands.q == [3, 7]
    assert [bands.tp[a:b].tolist() for a, b in zip(bands.start, bands.stop)] \
        == [[2.0, 4.0], [1.0, 3.0]]


def test_fractional_concurrency_rounds():
    bands = bucketize(scatter_at((4.6, 3)), min_samples=3, width=1)
    assert bands.q == [5]


def test_half_levels_round_to_even():
    bands = bucketize(scatter_at((2.5, 1), (3.5, 1)), min_samples=1, width=1)
    assert bands.q == [2, 4]


def test_sub_one_concurrency_clamps_to_one():
    bands = bucketize(scatter_at((0.4, 3)), min_samples=3, width=1)
    assert bands.q == [1]
