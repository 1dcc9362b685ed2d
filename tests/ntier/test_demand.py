"""Tests for the service-demand model."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.calibration import Calibration
from repro.ntier.demand import DemandProfile, TierDemand
from repro.workload.generator import RequestFactory
from repro.workload.mixes import browse_only_mix, read_write_mix

from tests.ntier.reference_server import reference_create, reference_draw


def test_tier_demand_validation():
    with pytest.raises(ConfigurationError):
        TierDemand(mean=0.0)
    with pytest.raises(ConfigurationError):
        TierDemand(mean=0.01, cv=-0.5)


@pytest.mark.parametrize(
    "fields",
    [
        dict(mean=math.nan),
        dict(mean=math.inf),
        dict(mean=0.01, cv=math.nan),
        dict(mean=0.01, cv=math.inf),
        dict(mean=0.01, dataset_exponent=math.nan),
        dict(mean=0.01, dataset_exponent=-math.inf),
    ],
    ids=["nan-mean", "inf-mean", "nan-cv", "inf-cv", "nan-exponent", "inf-exponent"],
)
def test_tier_demand_refuses_non_finite_parameters(fields):
    """A NaN mean would send every phase down the server's zero-demand
    path, and an infinite cv divides by zero in the sampler: both are
    refused when the demand is built."""
    with pytest.raises(ConfigurationError, match="must be finite"):
        TierDemand(**fields)


def test_effective_mean_dataset_scaling():
    td = TierDemand(mean=0.01, dataset_exponent=1.0)
    assert td.effective_mean(2.0) == pytest.approx(0.02)
    td = TierDemand(mean=0.01, dataset_exponent=0.0)
    assert td.effective_mean(5.0) == pytest.approx(0.01)
    td = TierDemand(mean=0.01, dataset_exponent=0.5)
    assert td.effective_mean(4.0) == pytest.approx(0.02)


def test_effective_mean_rejects_bad_scale():
    with pytest.raises(ConfigurationError):
        TierDemand(mean=0.01).effective_mean(0.0)


def _profile(cv=0.3):
    return DemandProfile(
        interaction="X",
        tiers={
            "web": TierDemand(mean=0.001, cv=cv),
            "db": TierDemand(mean=0.010, cv=cv, dataset_exponent=1.0),
        },
    )


def test_draw_deterministic_when_cv_zero():
    rng = np.random.default_rng(0)
    out = _profile(cv=0.0).sampler()(rng)
    assert out == {"web": 0.001, "db": 0.010}


def test_draw_respects_demand_scale():
    rng = np.random.default_rng(0)
    out = _profile(cv=0.0).sampler(demand_scale=25.0)(rng)
    assert out["db"] == pytest.approx(0.25)


def test_draw_respects_dataset_scale():
    rng = np.random.default_rng(0)
    out = _profile(cv=0.0).sampler(dataset_scale=2.0)(rng)
    assert out["db"] == pytest.approx(0.020)
    assert out["web"] == pytest.approx(0.001)  # exponent 0


def test_draw_statistics_match_configuration():
    rng = np.random.default_rng(42)
    sample = _profile(cv=0.4).sampler()
    draws = np.array([sample(rng)["db"] for _ in range(4000)])
    assert draws.mean() == pytest.approx(0.010, rel=0.05)
    assert draws.std() / draws.mean() == pytest.approx(0.4, rel=0.10)
    assert (draws > 0).all()


def test_unknown_distribution_rejected():
    with pytest.raises(ConfigurationError, match="distribution"):
        DemandProfile(
            interaction="X",
            tiers={"db": TierDemand(mean=0.01)},
            distribution="pareto",
        )


def test_gamma_default_draws_unchanged():
    """The ``distribution`` field defaults to gamma and must reproduce
    the historical draws bit-for-bit (byte-identity contract)."""
    a = _profile(cv=0.3).sampler()(np.random.default_rng(7))
    explicit = DemandProfile(
        interaction="X",
        tiers={
            "web": TierDemand(mean=0.001, cv=0.3),
            "db": TierDemand(mean=0.010, cv=0.3, dataset_exponent=1.0),
        },
        distribution="gamma",
    )
    b = explicit.sampler()(np.random.default_rng(7))
    assert a == b
    rng = np.random.default_rng(7)
    shape = 1.0 / 0.3**2
    assert a["web"] == float(rng.gamma(shape, 0.001 / shape))


def _lognormal_profile(cv):
    return DemandProfile(
        interaction="X",
        tiers={"db": TierDemand(mean=0.010, cv=cv)},
        distribution="lognormal",
    )


def test_lognormal_moments_match_configuration():
    rng = np.random.default_rng(42)
    sample = _lognormal_profile(cv=0.5).sampler()
    draws = np.array([sample(rng)["db"] for _ in range(8000)])
    assert draws.mean() == pytest.approx(0.010, rel=0.03)
    assert draws.std() / draws.mean() == pytest.approx(0.5, rel=0.10)
    assert (draws > 0).all()


def test_lognormal_tail_heavier_than_gamma():
    """Same mean and cv, but the lognormal's right tail dominates —
    checked on the exact quantile functions, not samples."""
    from scipy import stats

    cv, mean = 0.8, 0.010
    shape = 1.0 / cv**2
    sigma_sq = np.log1p(cv * cv)
    mu = np.log(mean) - sigma_sq / 2
    q = 0.9999
    gamma_q = stats.gamma.ppf(q, shape, scale=mean / shape)
    logn_q = stats.lognorm.ppf(q, sigma_sq**0.5, scale=np.exp(mu))
    assert logn_q > gamma_q


def test_lognormal_cv_zero_is_deterministic():
    rng = np.random.default_rng(0)
    out = _lognormal_profile(cv=0.0).sampler()(rng)
    assert out == {"db": 0.010}


def test_mean_demand_lookup():
    profile = _profile()
    assert profile.mean_demand("db") == pytest.approx(0.010)
    assert profile.mean_demand("db", dataset_scale=3.0) == pytest.approx(0.030)
    with pytest.raises(ConfigurationError):
        profile.mean_demand("cache")


@pytest.mark.parametrize(
    "profile",
    [
        _profile(cv=0.4),
        DemandProfile(
            interaction="X",
            tiers={
                "web": TierDemand(mean=0.001, cv=0.6),
                "db": TierDemand(mean=0.010, cv=0.6, dataset_exponent=1.0),
            },
            distribution="lognormal",
        ),
        DemandProfile(
            interaction="X",
            tiers={
                "web": TierDemand(mean=0.001, cv=0.3),
                "app": TierDemand(mean=0.003, cv=0.0, dataset_exponent=0.6),
                "db": TierDemand(mean=0.010, cv=0.5, dataset_exponent=1.0),
            },
        ),
    ],
    ids=["gamma", "lognormal", "cv0-tier"],
)
def test_sampler_matches_the_per_draw_parameters(profile):
    """A bound sampler makes the generator calls of a draw that
    recomputes every parameter: the same values, keys, key order and
    generator state."""
    sample = profile.sampler(dataset_scale=2.0, demand_scale=25.0)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(1000):
        got = sample(ours)
        want = reference_draw(profile, theirs, 2.0, 25.0)
        assert got == want
        assert list(got) == list(want)
    assert ours.bit_generator.state == theirs.bit_generator.state
    fresh = profile.sampler(2.0, 25.0)
    assert fresh(ours) == reference_draw(profile, theirs, 2.0, 25.0)


@pytest.mark.parametrize("make_mix", [browse_only_mix, read_write_mix])
def test_factory_requests_match_the_per_draw_path(make_mix, monkeypatch):
    mix = make_mix(Calibration().base_demands)
    factory = RequestFactory(mix, np.random.default_rng(9), 2.0, 25.0)
    ours = [factory.create(float(i)) for i in range(1000)]
    monkeypatch.setattr(RequestFactory, "create", reference_create(2.0, 25.0))
    reference = RequestFactory(mix, np.random.default_rng(9), 2.0, 25.0)
    theirs = [reference.create(float(i)) for i in range(1000)]
    assert [(r.req_id, r.interaction, r.demands) for r in ours] == [
        (r.req_id, r.interaction, r.demands) for r in theirs
    ]
    assert len({r.interaction for r in ours}) > 5
    assert factory.rng.bit_generator.state == reference.rng.bit_generator.state


def test_sampler_rejects_bad_dataset_scale():
    with pytest.raises(ConfigurationError):
        _profile().sampler(dataset_scale=0.0)
    with pytest.raises(ConfigurationError):
        _profile().sampler(dataset_scale=-1.0)
