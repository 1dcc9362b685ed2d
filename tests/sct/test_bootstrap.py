"""Tests for bootstrap confidence intervals on Q_lower."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.sct.bootstrap import bootstrap_q_lower
from repro.sct.model import SCTModel

from tests.sct.test_model import synthetic_curve


def model():
    return SCTModel(bucket_width=1, min_samples=4)


def test_clean_curve_gives_tight_interval():
    scatter = synthetic_curve(range(1, 31), kappa=2e-3, noise=0.02, n_per_q=30)
    interval = bootstrap_q_lower(scatter, model(), n_resamples=100,
                                 rng=np.random.default_rng(1))
    assert interval.lower <= interval.point <= interval.upper
    assert 9 <= interval.point <= 11
    assert interval.width <= 3
    assert "Q_lower" in interval.describe()


def test_noisy_curve_gives_wider_interval():
    clean = synthetic_curve(range(1, 31), kappa=2e-3, noise=0.02, n_per_q=30)
    noisy = synthetic_curve(range(1, 31), kappa=2e-3, noise=0.35, n_per_q=6,
                            seed=2)
    ci_clean = bootstrap_q_lower(clean, model(), n_resamples=80,
                                 rng=np.random.default_rng(1))
    ci_noisy = bootstrap_q_lower(noisy, model(), n_resamples=80,
                                 rng=np.random.default_rng(1))
    assert ci_noisy.width >= ci_clean.width


def test_interval_contains_truth_most_of_the_time():
    hits = 0
    for seed in range(8):
        scatter = synthetic_curve(range(1, 26), kappa=2e-3, noise=0.05,
                                 n_per_q=15, seed=seed)
        ci = bootstrap_q_lower(scatter, model(), n_resamples=60,
                               rng=np.random.default_rng(seed))
        hits += ci.lower <= 10 <= ci.upper
    assert hits >= 6  # ~90% nominal coverage, allow slack


def test_deterministic_given_rng():
    scatter = synthetic_curve(range(1, 26), kappa=2e-3)
    a = bootstrap_q_lower(scatter, model(), rng=np.random.default_rng(7))
    b = bootstrap_q_lower(scatter, model(), rng=np.random.default_rng(7))
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_validation():
    scatter = synthetic_curve(range(1, 26), kappa=2e-3)
    with pytest.raises(EstimationError):
        bootstrap_q_lower(scatter, model(), level=0.4)
    with pytest.raises(EstimationError):
        bootstrap_q_lower(scatter, model(), n_resamples=5)
    with pytest.raises(EstimationError):
        bootstrap_q_lower(scatter[:10], model())  # too thin to estimate
