"""Tests for the SCT estimator on synthetic curves."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.sct.model import SCTModel
from repro.sct.tuples import MetricTuple


def synthetic_curve(
    qs,
    a_sat=10.0,
    tp_max=100.0,
    kappa=2e-3,
    noise=0.02,
    n_per_q=30,
    util_fn=None,
    seed=0,
):
    """Tuples following the three-stage curve with utilisation."""
    rng = np.random.default_rng(seed)
    tuples = []
    for q in qs:
        penalty = 1.0 / (1.0 + kappa * q * max(0.0, q - 1.0))
        tp = tp_max * min(q, a_sat) / a_sat * penalty
        util = util_fn(q) if util_fn else min(1.0, q / a_sat)
        for _ in range(n_per_q):
            tuples.append(
                MetricTuple(
                    q=q,
                    tp=float(tp * (1 + rng.normal(0, noise))),
                    rt=q / tp if tp > 0 else float("nan"),
                    util=util,
                )
            )
    return tuples


def model(**kw):
    defaults = dict(bucket_width=1, min_samples=5)
    defaults.update(kw)
    return SCTModel(**defaults)


def test_finds_knee_of_clean_curve():
    tuples = synthetic_curve(range(1, 41))
    est = model().estimate(tuples)
    assert 9 <= est.q_lower <= 11
    assert est.optimal == est.q_lower
    assert est.ascending_observed
    assert est.saturation_observed
    assert est.hardware_limited
    assert est.confident


def test_q_upper_before_descent():
    tuples = synthetic_curve(range(1, 81), kappa=1e-2)
    est = model().estimate(tuples)
    assert est.q_lower <= est.q_upper < 40


def test_ascending_only_window_is_unsaturated():
    tuples = synthetic_curve(range(1, 8), a_sat=10)  # never reaches the knee
    est = model().estimate(tuples)
    assert not est.saturation_observed
    assert est.q_upper == 7


def test_plateau_only_window_lacks_ascending_evidence():
    tuples = synthetic_curve(range(10, 30), a_sat=10, kappa=1e-4)
    est = model().estimate(tuples)
    assert not est.ascending_observed


def test_contaminated_plateau_not_hardware_limited():
    """A plateau at low utilisation (downstream stall) must be flagged."""
    tuples = synthetic_curve(range(1, 41), util_fn=lambda q: 0.3)
    est = model().estimate(tuples)
    assert est.saturation_observed
    assert not est.hardware_limited
    assert est.plateau_util == pytest.approx(0.3)


def test_describe_mentions_flags():
    tuples = synthetic_curve(range(1, 8), a_sat=10)
    est = model().estimate(tuples)
    assert "unsaturated" in est.describe()


def test_too_few_buckets_raises():
    tuples = synthetic_curve([5, 6])
    with pytest.raises(EstimationError):
        model().estimate(tuples)


def test_all_zero_throughput_raises():
    tuples = [MetricTuple(q, 0.0, float("nan"), 1.0) for q in (2, 4, 6) for _ in range(6)]
    with pytest.raises(EstimationError):
        model().estimate(tuples)


def test_parameter_validation():
    with pytest.raises(EstimationError):
        SCTModel(tolerance=0.0)
    with pytest.raises(EstimationError):
        SCTModel(min_samples=0)


def test_noise_does_not_create_false_plateau_split():
    """An isolated noisy bucket inside the plateau must not split it."""
    tuples = synthetic_curve(range(1, 31), kappa=2e-4, noise=0.01, seed=1)
    # poison the bucket at q=12 with a few low samples (still above the
    # 3*tolerance rescue band to keep them from passing on their own)
    tuples = [
        t if not (t.q == 12 and i % 7 == 0) else MetricTuple(12, t.tp * 0.93, t.rt, t.util)
        for i, t in enumerate(tuples)
    ]
    est = model().estimate(tuples)
    assert est.q_upper > 12


def test_estimate_from_samples_roundtrip():
    from repro.monitoring.interval import IntervalSample

    samples = [
        IntervalSample(
            t_end=float(i), concurrency=q, throughput=100.0 * min(q, 10) / 10,
            response_time=0.01, completions=5, utilization={"cpu": min(1.0, q / 10)},
        )
        for q in range(1, 21)
        for i in range(6)
    ]
    est = model().estimate_from_samples(samples)
    assert 9 <= est.q_lower <= 11


def test_vertical_scaling_shifts_estimate():
    one_core = model().estimate(synthetic_curve(range(1, 41), a_sat=10, kappa=2e-4))
    two_core = model().estimate(synthetic_curve(range(1, 61), a_sat=20, kappa=2e-4))
    assert 9 <= one_core.optimal <= 11
    assert 18 <= two_core.optimal <= 22


def test_latency_threshold_validation():
    with pytest.raises(EstimationError):
        SCTModel(latency_threshold=0.0)


def test_sla_met_when_plateau_fast():
    tuples = synthetic_curve(range(1, 41), kappa=2e-4)
    # RT at the knee ~ q/tp ~ 10/98 = 0.102; threshold above that
    est = model(latency_threshold=0.2).estimate(tuples)
    assert est.sla_met
    assert est.optimal == est.q_lower


def test_sla_violated_when_even_qlower_is_slow():
    tuples = synthetic_curve(range(1, 41), kappa=2e-4)
    est = model(latency_threshold=0.01).estimate(tuples)
    assert not est.sla_met


def test_no_threshold_defaults_to_met():
    tuples = synthetic_curve(range(1, 41), kappa=2e-4)
    est = model().estimate(tuples)
    assert est.sla_met
