"""Tests for the analysis helpers."""

import math

import numpy as np
import pytest

from repro.analysis.series import coefficient_of_variation, group_mean_by_time
from repro.analysis.stats import fluctuation_summary, spike_episodes
from repro.errors import ReproError


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

def _naive_group_mean(times, values):
    by_time = {}
    for t, v in zip(times, values):
        by_time.setdefault(t, []).append(v)
    ts = sorted(by_time)
    return np.array(ts), np.array([np.mean(by_time[t]) for t in ts])


def test_group_mean_by_time_matches_naive():
    rng = np.random.default_rng(0)
    times = rng.choice(np.arange(0.0, 50.0), size=400)
    values = rng.normal(size=400)
    t_fast, v_fast = group_mean_by_time(times, values)
    t_ref, v_ref = _naive_group_mean(times, values)
    assert np.array_equal(t_fast, t_ref)
    assert np.allclose(v_fast, v_ref)


def test_group_mean_by_time_empty_and_invalid():
    t, v = group_mean_by_time([], [])
    assert t.size == 0 and v.size == 0
    with pytest.raises(ReproError):
        group_mean_by_time([1.0, 2.0], [1.0])


def test_cov():
    assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0
    assert coefficient_of_variation([]) != coefficient_of_variation([])  # NaN
    v = coefficient_of_variation([1.0, 3.0])
    assert v == pytest.approx(0.5)


# ----------------------------------------------------------------------
# spikes
# ----------------------------------------------------------------------

def test_spike_episodes_basic():
    t = [0, 1, 2, 3, 4, 5]
    v = [1, 9, 9, 1, 9, 1]
    eps = spike_episodes(t, v, threshold=5)
    assert eps == [(1.0, 3.0), (4.0, 5.0)]


def test_spike_open_ended():
    eps = spike_episodes([0, 1, 2], [1, 9, 9], threshold=5)
    assert eps == [(1.0, 2.0)]


def test_spike_nan_breaks_episode():
    eps = spike_episodes([0, 1, 2, 3], [9, math.nan, 9, 1], threshold=5)
    assert len(eps) == 2


def test_spike_shape_mismatch():
    with pytest.raises(ReproError):
        spike_episodes([0, 1], [1.0], threshold=5)


def test_time_above():
    """Time above the SLA sums every spike episode."""
    t = list(range(10))
    v = [0, 9, 9, 9, 0, 0, 9, 0, 0, 0]
    s = fluctuation_summary(t, v, sla=5)
    assert s.n_spikes == 2
    assert s.time_above_sla == pytest.approx(4.0)


def test_fluctuation_summary():
    t = [0, 1, 2, 3]
    v = [0.1, 2.0, 0.1, 0.1]
    s = fluctuation_summary(t, v, sla=0.5)
    assert s.n_spikes == 1
    assert s.worst_value == 2.0
    assert s.time_above_sla == pytest.approx(1.0)
    assert s.cov > 1.0
