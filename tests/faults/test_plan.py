"""FaultPlan: DSL parsing, validation, and content digests."""

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.artifact import content_digest
from repro.faults.plan import (
    ClientTimeoutSpec,
    FaultPlan,
    ProvisioningFaultSpec,
    ServerCrashSpec,
    SlowNodeSpec,
    TelemetryDropoutSpec,
    parse_fault,
    parse_faults,
)


def test_parse_each_kind_with_defaults():
    assert parse_fault("crash:db:120") == ServerCrashSpec("db", 120.0)
    assert parse_fault("slow:app:60") == SlowNodeSpec("app", 60.0)
    assert parse_fault("slow:app:60:30:8:1") == SlowNodeSpec(
        "app", 60.0, duration=30.0, slowdown=8.0, server_index=1
    )
    assert parse_fault("prov:db:100:40") == ProvisioningFaultSpec(
        "db", 100.0, 40.0
    )
    assert parse_fault("prov:all:100:40:delay:3") == ProvisioningFaultSpec(
        "*", 100.0, 40.0, mode="delay", delay_factor=3.0
    )
    assert parse_fault("dropout:all:80:25") == TelemetryDropoutSpec(
        80.0, 25.0, tier="*"
    )
    assert parse_fault("dropout:db:80:25") == TelemetryDropoutSpec(
        80.0, 25.0, tier="db"
    )
    assert parse_fault("timeout:50:60:2.5:3") == ClientTimeoutSpec(
        50.0, 60.0, deadline=2.5, max_retries=3
    )


def test_parse_plan_and_describe():
    plan = FaultPlan.parse("crash:db:120, slow:app:60:30")
    assert len(plan) == 2
    assert plan.describe() == "crash:db[0]@120,slow:app[0]x4@60+30"
    assert parse_faults(None) is None
    assert parse_faults("  ") is None
    assert parse_faults("crash:db:120") == FaultPlan(
        (ServerCrashSpec("db", 120.0),)
    )


@pytest.mark.parametrize(
    "atom",
    [
        "explode:db:10",          # unknown kind
        "crash:db",               # missing time
        "crash:mainframe:10",     # unknown tier
        "slow:db:ten",            # non-numeric
        "slow:db:-1",             # negative time
        "slow:db:10:0",           # non-positive duration
        "prov:db:10:20:maybe",    # bad mode
        "timeout:10:20:0",        # non-positive deadline
        "dropout:db:10",          # missing duration
    ],
)
def test_parse_rejects_bad_atoms(atom):
    with pytest.raises(ConfigurationError):
        parse_fault(atom)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SlowNodeSpec("db", 10.0, slowdown=1.0)
    with pytest.raises(ConfigurationError):
        SlowNodeSpec("db", 10.0, server_index=-1)
    with pytest.raises(ConfigurationError):
        ProvisioningFaultSpec("db", 10.0, 5.0, delay_factor=1.0)
    with pytest.raises(ConfigurationError):
        ClientTimeoutSpec(10.0, 5.0, max_retries=-1)
    with pytest.raises(ConfigurationError):
        TelemetryDropoutSpec(10.0, 5.0, tier="nope")
    with pytest.raises(ConfigurationError):
        FaultPlan(("not a spec",))


NON_FINITE = [float("nan"), float("inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: SlowNodeSpec("db", v), "fault time"),
        (lambda v: SlowNodeSpec("db", 10.0, duration=v), "fault duration"),
        (lambda v: SlowNodeSpec("db", 10.0, slowdown=v), "slowdown"),
        (lambda v: ServerCrashSpec("db", v), "fault time"),
        (lambda v: ProvisioningFaultSpec("db", v, 5.0), "fault time"),
        (lambda v: ProvisioningFaultSpec("db", 10.0, v), "fault duration"),
        (lambda v: ProvisioningFaultSpec("db", 10.0, 5.0, mode="delay",
                                         delay_factor=v), "delay_factor"),
        (lambda v: TelemetryDropoutSpec(v, 5.0), "fault time"),
        (lambda v: TelemetryDropoutSpec(10.0, v), "fault duration"),
        (lambda v: ClientTimeoutSpec(v, 5.0), "fault time"),
        (lambda v: ClientTimeoutSpec(10.0, v), "fault duration"),
        (lambda v: ClientTimeoutSpec(10.0, 5.0, deadline=v), "deadline"),
    ],
    ids=[
        "slow-at", "slow-duration", "slowdown", "crash-at", "prov-at",
        "prov-duration", "delay_factor", "dropout-at", "dropout-duration",
        "timeout-at", "timeout-duration", "deadline",
    ],
)
def test_specs_refuse_non_finite_numbers_by_name(build, name, value):
    # NaN fails every comparison, so a "< 0" check alone lets it through.
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        build(value)


@pytest.mark.parametrize(
    "atom, name",
    [
        ("crash:db:nan", "fault time"),
        ("dropout:all:10:nan", "fault duration"),
        ("slow:db:10:5:nan", "slowdown"),
        ("prov:db:10:5:delay:nan", "delay_factor"),
        ("timeout:10:5:nan", "deadline"),
        ("slow:db:inf", "fault time"),
    ],
)
def test_parse_refuses_non_finite_numbers_by_name(atom, name):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        parse_fault(atom)


def test_overlapping_dropouts_rejected():
    with pytest.raises(ExperimentError):
        FaultPlan(
            (
                TelemetryDropoutSpec(10.0, 20.0, tier="db"),
                TelemetryDropoutSpec(25.0, 20.0, tier="*"),
            )
        )
    # Disjoint windows on the same tier are fine.
    FaultPlan(
        (
            TelemetryDropoutSpec(10.0, 20.0, tier="db"),
            TelemetryDropoutSpec(40.0, 20.0, tier="db"),
        )
    )
    # Overlap on different concrete tiers is fine too.
    FaultPlan(
        (
            TelemetryDropoutSpec(10.0, 20.0, tier="db"),
            TelemetryDropoutSpec(15.0, 20.0, tier="app"),
        )
    )


def test_overlapping_timeouts_rejected():
    with pytest.raises(ExperimentError):
        FaultPlan(
            (
                ClientTimeoutSpec(10.0, 30.0),
                ClientTimeoutSpec(30.0, 30.0),
            )
        )


def test_overlapping_slow_nodes_allowed():
    plan = FaultPlan(
        (
            SlowNodeSpec("db", 10.0, duration=30.0),
            SlowNodeSpec("db", 20.0, duration=30.0),
        )
    )
    assert len(plan) == 2


def test_digests_distinguish_spec_types_and_fields():
    crash = FaultPlan((ServerCrashSpec("db", 10.0),))
    crash_app = FaultPlan((ServerCrashSpec("app", 10.0),))
    slow = FaultPlan((SlowNodeSpec("db", 10.0),))
    digests = {content_digest(p) for p in (crash, crash_app, slow)}
    assert len(digests) == 3
    assert content_digest(crash) == content_digest(
        FaultPlan((ServerCrashSpec("db", 10.0),))
    )
