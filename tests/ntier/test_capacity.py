"""Tests for the concurrency-dependent capacity model."""

import pytest

from repro.errors import CapacityModelError
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource


# ----------------------------------------------------------------------
# Resource
# ----------------------------------------------------------------------

def test_resource_saturation_concurrency():
    assert Resource("cpu", 1.0, 0.1).saturation_concurrency == 10.0
    assert Resource("cpu", 2.0, 0.1).saturation_concurrency == 20.0


def test_resource_validation():
    with pytest.raises(CapacityModelError):
        Resource("cpu", 0.0, 0.1)
    for units in (float("nan"), float("inf")):
        with pytest.raises(CapacityModelError, match="units must be finite and > 0"):
            Resource("cpu", units, 0.1)
    with pytest.raises(CapacityModelError):
        Resource("cpu", 1.0, 0.0)
    with pytest.raises(CapacityModelError):
        Resource("cpu", 1.0, 1.5)


# ----------------------------------------------------------------------
# ContentionModel
# ----------------------------------------------------------------------

def test_penalty_is_one_at_or_below_one():
    c = ContentionModel(sigma=0.1, kappa=0.01)
    assert c.penalty(1.0) == 1.0
    assert c.penalty(0.5) == 1.0


def test_penalty_usl_formula():
    c = ContentionModel(sigma=0.01, kappa=0.001)
    m = 11.0
    expected = 1.0 / (1.0 + 0.01 * 10 + 0.001 * 11 * 10)
    assert c.penalty(m) == pytest.approx(expected)


def test_penalty_monotonically_decreasing():
    c = ContentionModel(sigma=0.005, kappa=1e-4)
    values = [c.penalty(m) for m in range(1, 100)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_zero_contention_is_free():
    c = ContentionModel()
    assert c.penalty(1000.0) == 1.0


def test_contention_validation():
    with pytest.raises(CapacityModelError):
        ContentionModel(sigma=-0.1)
    with pytest.raises(CapacityModelError):
        ContentionModel(kappa=-1e-4)


# ----------------------------------------------------------------------
# CapacityModel
# ----------------------------------------------------------------------

def _model(a_sat=10.0, sigma=0.0, kappa=0.0, cores=1.0):
    return CapacityModel(
        [Resource("cpu", cores, cores / (a_sat * cores))],
        ContentionModel(sigma, kappa),
    )


def test_needs_at_least_one_resource():
    with pytest.raises(CapacityModelError):
        CapacityModel([])


def test_duplicate_resource_names_rejected():
    with pytest.raises(CapacityModelError):
        CapacityModel([Resource("cpu", 1, 0.1), Resource("cpu", 2, 0.2)])


def test_critical_resource_is_first_to_saturate():
    m = CapacityModel([Resource("cpu", 4, 0.04), Resource("disk", 1, 0.2)])
    assert m.critical_resource.name == "disk"
    assert m.saturation_concurrency == 5.0


def test_work_rate_linear_below_saturation():
    m = _model(a_sat=10)
    assert m.work_rate(1, 1) == pytest.approx(1.0)
    assert m.work_rate(5, 5) == pytest.approx(5.0)


def test_work_rate_caps_at_saturation():
    m = _model(a_sat=10)
    assert m.work_rate(50, 50) == pytest.approx(10.0)


def test_work_rate_zero_when_idle():
    assert _model().work_rate(0, 0) == 0.0


def test_work_rate_penalised_by_admitted():
    m = _model(a_sat=10, sigma=0.01)
    # same active, more admitted -> lower rate
    assert m.work_rate(5, 50) < m.work_rate(5, 5)


def test_throughput_matches_rate_over_demand():
    m = _model(a_sat=10)
    assert m.throughput(5, 0.01) == pytest.approx(500.0)
    assert m.throughput(20, 0.01) == pytest.approx(1000.0)


def test_throughput_validation():
    with pytest.raises(CapacityModelError):
        _model().throughput(5, 0.0)


def test_peak_finds_saturation_knee():
    m = _model(a_sat=10, sigma=0.001, kappa=1e-5)
    q, tp = m.peak(0.01)
    assert 9 <= q <= 12
    assert tp == pytest.approx(m.throughput(q, 0.01))


def test_peak_with_descent_is_unimodal_argmax():
    m = _model(a_sat=10, sigma=0.01, kappa=1e-3)
    q, tp = m.peak(0.01)
    assert q <= 11
    for other in (q + 10, q + 30):
        assert m.throughput(other, 0.01) <= tp


def test_busy_utilization_ignores_penalty():
    m = _model(a_sat=10, sigma=0.05, kappa=0.01)
    # 10 active requests peg the CPU even though contention wastes much
    # of it — the monitoring agent reports a busy CPU.
    assert m.utilization("cpu", 10, 100) == pytest.approx(1.0)
    assert m.utilization("cpu", 5, 5) == pytest.approx(0.5)
    assert m.utilization("cpu", 0, 0) == 0.0


def test_efficiency_reflects_penalty():
    m = _model(a_sat=10, sigma=0.05, kappa=0.01)
    assert m.efficiency("cpu", 10, 100) < 0.5
    lightly = m.efficiency("cpu", 5, 5)
    assert lightly == pytest.approx(m.work_rate(5, 5) * 0.1, rel=1e-9)


def test_unknown_resource_raises():
    with pytest.raises(CapacityModelError):
        _model().utilization("gpu", 1, 1)


def test_scaled_cores_doubles_saturation():
    m = _model(a_sat=10)
    m2 = m.scaled_cores("cpu", 2.0)
    assert m2.saturation_concurrency == pytest.approx(20.0)
    # original untouched
    assert m.saturation_concurrency == pytest.approx(10.0)


def test_scaled_cores_unknown_name_keeps_resources():
    m = CapacityModel([Resource("cpu", 1, 0.1), Resource("disk", 1, 0.5)])
    m2 = m.scaled_cores("disk", 2.0)
    assert m2.critical_resource.name == "disk"
    assert m2.saturation_concurrency == pytest.approx(4.0)
