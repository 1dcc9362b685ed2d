"""Tests for capacity-curve drift detection."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.sct.drift import detect_drift
from repro.sct.scatter import Scatter

from tests.sct.test_model import scatter_of


def curve(qs, tp_scale=1.0, a_sat=10.0, noise=0.03, n=20, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    for q in qs:
        tp = 100.0 * tp_scale * min(q, a_sat) / a_sat
        for _ in range(n):
            points.append((q, float(tp * (1 + rng.normal(0, noise))), 0.01,
                           min(1.0, q / a_sat)))
    return scatter_of(points)


def test_stationary_window_not_flagged():
    old = curve(range(1, 20), seed=0)
    new = curve(range(1, 20), seed=1)
    report = detect_drift(old, new, bucket_width=1)
    assert not report.drifted
    assert report.direction == "none"
    assert "stationary" in report.describe()


def test_capacity_doubling_detected_as_up():
    old = curve(range(1, 20), tp_scale=1.0, seed=0)
    new = curve(range(1, 20), tp_scale=2.0, a_sat=20.0, seed=1)
    report = detect_drift(old, new, bucket_width=1)
    assert report.drifted
    assert report.direction == "up"
    # the ascending stage (q <= 10) is bit-identical after a core
    # doubling, so the mean shift over ALL shared bands is diluted;
    # what matters is that the shifted cluster is detected.
    assert report.mean_shift > 0.15
    assert report.shifted_bands >= 5
    assert "drift up" in report.describe()


def test_degradation_detected_as_down():
    old = curve(range(1, 20), tp_scale=1.0, seed=0)
    new = curve(range(1, 20), tp_scale=0.5, seed=1)
    report = detect_drift(old, new, bucket_width=1)
    assert report.drifted
    assert report.direction == "down"


def test_small_shift_below_threshold_ignored():
    old = curve(range(1, 20), tp_scale=1.00, seed=0)
    new = curve(range(1, 20), tp_scale=1.05, seed=1)  # 5% < min_shift 10%
    report = detect_drift(old, new, bucket_width=1)
    assert not report.drifted


def test_disjoint_concurrency_ranges_are_inconclusive():
    old = curve(range(1, 6), seed=0)
    new = curve(range(30, 36), seed=1)
    report = detect_drift(old, new, bucket_width=1)
    assert not report.drifted
    assert report.shared_bands == 0


def test_validation():
    empty = scatter_of([])
    with pytest.raises(EstimationError):
        detect_drift(empty, empty, alpha=0.0)
    with pytest.raises(EstimationError):
        detect_drift(empty, empty, min_shift=0.0)


def test_simulated_vertical_scale_is_detected():
    """End-to-end: scatter collected before vs after a server's cores
    double must register as upward drift."""
    from repro.experiments.calibration import db_capacity_cpu
    from repro.experiments.sweep import cap_ramp_scatter
    from repro.workload.mixes import browse_only_mix
    from repro.experiments.calibration import Calibration

    cal = Calibration()
    mix = browse_only_mix(cal.base_demands)
    before, _ = cap_ramp_scatter(
        db_capacity_cpu(1.0), mix, q_max=30, q_step=2, dwell=1.5, seed=7
    )
    after, _ = cap_ramp_scatter(
        db_capacity_cpu(2.0), mix, q_max=30, q_step=2, dwell=1.5, seed=8
    )
    report = detect_drift(Scatter.from_window(before), Scatter.from_window(after))
    assert report.drifted
    assert report.direction == "up"
