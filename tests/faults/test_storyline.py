"""Storyline templates: registry, lowering, digests, and DSL errors."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.artifact import content_digest
from repro.faults.plan import (
    FaultPlan,
    ProvisioningFaultSpec,
    ServerCrashSpec,
    SlowNodeSpec,
    TelemetryDropoutSpec,
)
from repro.faults.storyline import (
    StoryAtom,
    Storyline,
    get_storyline,
    parse_storyline,
    storyline_names,
)
from repro.rng import RngRegistry

BUILTINS = ("az-outage", "brownout", "cascading-retry-storm", "flapping-node")


def test_builtin_registry_has_at_least_four_storylines():
    names = storyline_names()
    assert len(names) >= 4
    assert names == tuple(sorted(names))
    for name in BUILTINS:
        assert name in names


def test_az_outage_instantiation_scales_and_correlates():
    plan = get_storyline("az-outage").instantiate(
        tier="db", t0=100.0, duration=60.0
    )
    assert isinstance(plan, FaultPlan)
    assert plan.storyline == "az-outage"
    by_type = {type(s): s for s in plan.specs}
    crash = by_type[ServerCrashSpec]
    prov = by_type[ProvisioningFaultSpec]
    dropout = by_type[TelemetryDropoutSpec]
    # The epicenter binds the crash; the wildcard atoms stay wildcard.
    assert crash.tier == "db"
    assert prov.tier == "*"
    assert dropout.tier == "*"
    # Fractional offsets/lengths scale with the incident window.
    assert crash.at == pytest.approx(103.0)  # offset_frac 0.05 of 60 s
    assert prov.window == (100.0, 130.0)  # length_frac 0.5
    assert dropout.window == (100.0, 148.0)  # length_frac 0.8
    # Specs come out sorted by activation time.
    starts = [s.window[0] for s in plan.specs]
    assert starts == sorted(starts)


def test_epicenter_moves_with_the_tier_argument():
    plan = get_storyline("brownout").instantiate(
        tier="app", t0=50.0, duration=40.0
    )
    slows = [s for s in plan.specs if isinstance(s, SlowNodeSpec)]
    # One atom is pinned to app explicitly, the epicenter one follows
    # the argument - both land on app here.
    assert {s.tier for s in slows} == {"app"}


def test_storyline_digest_is_stable_and_content_sensitive():
    story = get_storyline("az-outage")
    assert content_digest(story) == content_digest(get_storyline("az-outage"))
    other = Storyline(
        name="az-outage-variant",
        summary=story.summary,
        atoms=story.atoms + (StoryAtom(kind="slow"),),
    )
    assert content_digest(other) != content_digest(story)


def test_repeat_expands_atoms_periodically():
    story = get_storyline("flapping-node")
    assert story.repeat == 3
    plan = story.instantiate(tier="db", t0=10.0, duration=20.0, rng=None)
    slows = [s for s in plan.specs if isinstance(s, SlowNodeSpec)]
    assert len(slows) == 3
    # Without an rng the repetitions are perfectly periodic.
    assert [s.at for s in slows] == [10.0, 17.0, 24.0]


def test_jitter_is_deterministic_per_seed():
    a = parse_storyline("flapping-node", run_duration=300.0, seed=7)
    b = parse_storyline("flapping-node", run_duration=300.0, seed=7)
    c = parse_storyline("flapping-node", run_duration=300.0, seed=8)
    assert a == b
    assert a != c  # a different seed moves the jittered repetitions


def test_jitter_moves_repetitions_as_a_unit():
    story = get_storyline("flapping-node")
    rng = RngRegistry(3).stream("storyline:flapping-node")
    plan = story.instantiate(tier="db", t0=100.0, duration=50.0, rng=rng)
    starts = [s.at for s in plan.specs]
    # First repetition is pinned at t0, later ones jittered off-period.
    assert starts[0] == 100.0
    assert starts == sorted(starts)
    unjittered = story.instantiate(tier="db", t0=100.0, duration=50.0)
    assert starts != [s.at for s in unjittered.specs]


def test_parse_storyline_defaults_match_the_suite_window():
    plan = parse_storyline("az-outage", run_duration=300.0, seed=3)
    crash = next(s for s in plan.specs if isinstance(s, ServerCrashSpec))
    # t0 = 0.4 * 300 = 120, window = min(60, 0.2 * 300) = 60.
    assert crash.at == pytest.approx(123.0)
    assert crash.tier == "db"


def test_parse_storyline_full_form():
    plan = parse_storyline("az-outage:app:40:20", run_duration=700.0, seed=3)
    crash = next(s for s in plan.specs if isinstance(s, ServerCrashSpec))
    assert crash.tier == "app"
    assert crash.at == pytest.approx(41.0)
    prov = next(s for s in plan.specs if isinstance(s, ProvisioningFaultSpec))
    assert prov.window == (40.0, 50.0)


def test_unknown_storyline_lists_known_names():
    with pytest.raises(ConfigurationError, match="az-outage"):
        parse_storyline("no-such-incident", run_duration=300.0)


def test_malformed_storyline_specs():
    with pytest.raises(ConfigurationError, match="empty"):
        parse_storyline("", run_duration=300.0)
    with pytest.raises(ConfigurationError, match=r"NAME\[:TIER"):
        parse_storyline("az-outage:db:120:60:extra", run_duration=300.0)
    with pytest.raises(ConfigurationError, match="bad number"):
        parse_storyline("az-outage:db:soon", run_duration=300.0)
    with pytest.raises(ConfigurationError, match="epicenter tier"):
        parse_storyline("az-outage:rack7", run_duration=300.0)


def test_malformed_atoms_rejected():
    with pytest.raises(ConfigurationError, match="kind"):
        StoryAtom(kind="meteor")
    with pytest.raises(ConfigurationError, match="offset_frac"):
        StoryAtom(kind="slow", offset_frac=-0.1)
    with pytest.raises(ConfigurationError, match="length_frac"):
        StoryAtom(kind="slow", length_frac=0.0)
    with pytest.raises(ConfigurationError, match="tier"):
        StoryAtom(kind="slow", tier="rack7")
    with pytest.raises(ConfigurationError, match="no atoms"):
        Storyline(name="hollow", summary="", atoms=())
    with pytest.raises(ConfigurationError, match="repeat"):
        Storyline(
            name="x", summary="", atoms=(StoryAtom(kind="slow"),), repeat=0
        )


def test_overlapping_same_tier_crashes_rejected():
    story = Storyline(
        name="double-tap",
        summary="two crashes on the same server slot",
        atoms=(
            StoryAtom(kind="crash", server_index=0),
            StoryAtom(kind="crash", server_index=0),
        ),
    )
    with pytest.raises(ExperimentError, match="overlapping same-tier crash"):
        story.instantiate(tier="db", t0=100.0, duration=60.0)
    # Distinct server slots are fine.
    ok = Storyline(
        name="spread-tap",
        summary="two crashes on different slots",
        atoms=(
            StoryAtom(kind="crash", server_index=0),
            StoryAtom(kind="crash", server_index=1, offset_frac=0.2),
        ),
    )
    plan = ok.instantiate(tier="db", t0=100.0, duration=60.0)
    assert len(plan.specs) == 2


def test_lowered_plans_ride_content_digests():
    a = parse_storyline("az-outage", run_duration=300.0, seed=3)
    b = parse_storyline("az-outage", run_duration=300.0, seed=3)
    assert a == b
    assert a.title == "az-outage"
    assert "crash:db[0]" in a.describe()
    moved = parse_storyline("az-outage:db:150", run_duration=300.0, seed=3)
    assert moved != a
