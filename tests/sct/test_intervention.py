"""Tests for the Welch-based plateau detection.

scipy stays the reference here: the program computes the Student-t
CDF itself, and these tests hold it to ``scipy.special.stdtr``.
"""

import math

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.sct import intervention
from repro.sct.grouping import bucketize
from repro.sct.intervention import (
    _student_t_cdf,
    welch_moments_pvalue,
    welch_t_pvalue,
)
from repro.sct.scatter import Scatter


def test_clearly_lower_sample_is_significant():
    rng = np.random.default_rng(0)
    low = rng.normal(50, 5, 40)
    high = rng.normal(100, 5, 40)
    assert welch_t_pvalue(low, high) < 1e-6


def test_identical_distributions_not_significant():
    rng = np.random.default_rng(1)
    a = rng.normal(100, 10, 40)
    b = rng.normal(100, 10, 40)
    assert welch_t_pvalue(a, b) > 0.01


def test_higher_sample_has_large_pvalue():
    rng = np.random.default_rng(2)
    a = rng.normal(120, 5, 30)
    b = rng.normal(100, 5, 30)
    assert welch_t_pvalue(a, b) > 0.99


def test_tiny_samples_decided_by_mean():
    assert welch_t_pvalue([5.0], [10.0, 11.0]) == 0.0
    assert welch_t_pvalue([50.0], [10.0, 11.0]) == 1.0


def test_constant_samples_decided_by_mean():
    assert welch_t_pvalue([5.0, 5.0, 5.0], [9.0, 9.0, 9.0]) == 0.0
    assert welch_t_pvalue([9.0, 9.0], [9.0, 9.0]) == 1.0


def test_matches_scipy_reference():
    from scipy import stats

    rng = np.random.default_rng(3)
    a = rng.normal(10, 2, 25)
    b = rng.normal(11, 3, 18)
    ours = welch_t_pvalue(a, b)
    ref = stats.ttest_ind(a, b, equal_var=False, alternative="less").pvalue
    assert ours == pytest.approx(float(ref), abs=1e-12)


def test_nan_variance_gives_the_not_significant_answer():
    # a NaN variance makes t and the CDF NaN; the guard answers 1.0
    assert welch_moments_pvalue((1.0, math.nan, 5), (2.0, 1.0, 5)) == 1.0


def test_student_t_cdf_matches_scipy_on_a_grid():
    """df log-uniform over [1, 1e5], |t| log-uniform over [1e-4, 1e3]."""
    from scipy import special

    rng = np.random.default_rng(25)
    n = 4000
    df = np.exp(rng.uniform(0.0, math.log(1e5), n))
    t = np.exp(rng.uniform(math.log(1e-4), math.log(1e3), n))
    t *= rng.choice([-1.0, 1.0], n)
    ours = np.array([_student_t_cdf(v, x) for v, x in zip(df.tolist(), t.tolist())])
    assert np.abs(ours - special.stdtr(df, t)).max() <= 1e-12


def test_student_t_cdf_exact_values_and_symmetry():
    for df in (1.0, 3.1, 40.0, 272.8, 1e5):
        assert _student_t_cdf(df, 0.0) == 0.5
        assert _student_t_cdf(df, -0.0) == 0.5
        assert _student_t_cdf(df, math.inf) == 1.0
        assert _student_t_cdf(df, -math.inf) == 0.0
    rng = np.random.default_rng(26)
    for df, t in zip(rng.uniform(1.0, 300.0, 500), rng.normal(0.0, 4.0, 500)):
        df, t = float(df), float(t)
        assert abs(_student_t_cdf(df, t) + _student_t_cdf(df, -t) - 1.0) <= 1e-15


def test_student_t_cdf_limits_and_invalid_input():
    from scipy import special

    for t in (-2.5, 0.3, 4.0):
        assert _student_t_cdf(math.inf, t) == pytest.approx(
            float(special.stdtr(math.inf, t)), abs=1e-15
        )
    # NaN in, NaN out, as scipy.special.stdtr does
    assert math.isnan(_student_t_cdf(5.0, math.nan))
    assert math.isnan(_student_t_cdf(math.nan, 1.0))
    assert math.isnan(_student_t_cdf(0.0, 1.0))
    assert math.isnan(_student_t_cdf(-2.0, 1.0))


def test_student_t_cdf_refuses_an_unconverged_fraction(monkeypatch):
    monkeypatch.setattr(intervention, "_CF_MAX_ITER", 1)
    with pytest.raises(EstimationError, match="did not converge"):
        _student_t_cdf(40.0, -1.5)


def test_moments_match_samples():
    rng = np.random.default_rng(5)
    a = rng.normal(10, 2, 25)
    b = rng.normal(11, 3, 18)
    moments = [(float(x.mean()), float(x.var(ddof=1)), x.size) for x in (a, b)]
    assert welch_moments_pvalue(*moments) == welch_t_pvalue(a, b)
    # a single observation's variance is never read
    assert welch_moments_pvalue((5.0, float("nan"), 1), moments[1]) == 0.0


def test_plateau_pvalues_shape():
    """Welch p-values of each band against the peak band, from the
    per-band moments the estimator reads."""
    rng = np.random.default_rng(4)
    means = [(2, 20.0), (5, 50.0), (10, 100.0), (20, 99.0)]
    q = np.repeat([float(level) for level, _ in means], 30)
    tp = np.concatenate([rng.normal(mean, 5, 30) for _, mean in means])
    bands = bucketize(Scatter(q, tp, np.full(q.size, 0.01), np.ones(q.size)),
                      min_samples=5, width=1)
    peak = bands.q.index(10)
    pvals = {
        level: welch_moments_pvalue(bands.tp_moments(i), bands.tp_moments(peak))
        for i, level in enumerate(bands.q)
    }
    assert pvals[10] > 0.49  # the peak against itself
    assert pvals[2] < 0.001  # clearly below peak
    assert pvals[20] > 0.05  # statistically at the peak
