"""Tests for the RUBBoS catalog and workload mixes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.mixes import WorkloadMix, browse_only_mix, read_write_mix
from repro.workload.rubbos import CATALOG

BASE = {"web": (0.001, 0.1), "app": (0.002, 0.2), "db": (0.005, 0.3)}


def test_catalog_has_24_interactions():
    assert len(CATALOG) == 24
    assert len({i.name for i in CATALOG}) == 24


def test_catalog_has_writes_and_reads():
    writes = [i for i in CATALOG if i.write]
    assert 3 <= len(writes) <= 8
    assert all(i.name.startswith("Store") for i in writes)


def test_interaction_lookup():
    """A mix looks each servlet's multipliers up in the catalog by name."""
    mix = WorkloadMix("two", {"ViewStory": 1.0, "SearchInStories": 1.0}, BASE)
    assert mix.profile("ViewStory").tiers["db"].mean == pytest.approx(0.005)
    assert mix.profile("SearchInStories").tiers["db"].mean == pytest.approx(0.010)
    with pytest.raises(KeyError):
        mix.profile("NoSuchServlet")


def test_browse_only_mix_has_no_writes():
    mix = browse_only_mix(BASE)
    assert mix.write_fraction() == 0.0


def test_read_write_mix_has_writes():
    mix = read_write_mix(BASE)
    assert 0.08 <= mix.write_fraction() <= 0.25


def test_mix_validation():
    with pytest.raises(ConfigurationError):
        WorkloadMix("empty", {}, BASE)
    with pytest.raises(ConfigurationError):
        WorkloadMix("bad", {"NoSuchServlet": 1.0}, BASE)
    with pytest.raises(ConfigurationError):
        WorkloadMix("zero", {"ViewStory": 0.0}, BASE)


def test_sampling_follows_weights():
    mix = WorkloadMix("two", {"ViewStory": 3.0, "SearchInStories": 1.0}, BASE)
    rng = np.random.default_rng(0)
    draws = [mix.sample_interaction(rng) for _ in range(2000)]
    frac = draws.count("ViewStory") / len(draws)
    assert frac == pytest.approx(0.75, abs=0.03)


def test_mean_demand_is_weighted():
    mix = WorkloadMix("two", {"ViewStory": 1.0, "SearchInStories": 1.0}, BASE)
    # db multipliers: ViewStory 1.0, SearchInStories 2.0 -> mean 1.5x base
    assert mix.mean_demand("db") == pytest.approx(0.005 * 1.5)


def test_mean_demand_dataset_scaling():
    mix = WorkloadMix("one", {"ViewStory": 1.0}, BASE)
    # db demand scales linearly with the dataset
    assert mix.mean_demand("db", dataset_scale=2.0) == pytest.approx(0.010)
    # web demand does not
    assert mix.mean_demand("web", dataset_scale=2.0) == pytest.approx(0.001)


def test_profile_access():
    mix = browse_only_mix(BASE)
    profile = mix.profile("ViewStory")
    assert profile.interaction == "ViewStory"
    assert set(profile.tiers) == {"web", "app", "db"}


def test_interactions_sorted():
    mix = browse_only_mix(BASE)
    assert mix.interactions == sorted(mix.interactions)


@pytest.mark.parametrize("build", [browse_only_mix, read_write_mix])
def test_sampling_matches_generator_choice(build):
    """The once-built CDF makes the picks ``rng.choice(p=...)`` makes,
    scalar and vector, and leaves the generator in the same state."""
    mix = build(BASE)
    names = mix.interactions
    probs = np.array(mix.canonical_key()[2])  # the normalised weights
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3000):
        assert mix.sample_interaction(ours) == names[
            int(theirs.choice(len(names), p=probs))
        ]
    assert ours.bit_generator.state == theirs.bit_generator.state
    for size in (0, 1, 17, 500):
        picks = mix.sample_interactions(ours, size)
        expected = theirs.choice(len(names), size=size, p=probs)
        assert picks.dtype.kind == "i"
        np.testing.assert_array_equal(picks, expected)
    assert ours.bit_generator.state == theirs.bit_generator.state
