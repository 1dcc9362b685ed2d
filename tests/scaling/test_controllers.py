"""Integration tests for the three scaling frameworks on small runs."""

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import ScenarioConfig
from repro.ntier.app import DB
from repro.scaling.dcm import default_profile


def small_config(**kw):
    defaults = dict(
        name="test", trace_name="dual_phase", load_scale=100.0,
        duration=200.0, seed=11,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_ec2_scales_out_under_load():
    res = run_experiment("ec2", small_config())
    assert res.completed > 1000
    assert res.generated - res.completed < 50  # drained
    outs = res.actions.of_kind("scale_out_ready")
    assert outs, "the dual-phase step must trigger scale-out"
    # EC2 never touches soft resources
    assert not res.actions.of_kind(
        "soft_app_threads", "soft_db_connections", "soft_web_threads"
    )


def test_ec2_vm_count_grows_with_load():
    res = run_experiment("ec2", small_config())
    assert res.vm_counts.max() > 3
    assert res.vm_counts[0] == 3


def test_dcm_applies_trained_profile_at_start_and_scaling():
    config = small_config()
    profile = default_profile(config)
    res = run_experiment("dcm", config)
    app_sets = res.actions.of_kind("soft_app_threads")
    assert app_sets and app_sets[0].value == profile.app_optimal
    conn_sets = res.actions.of_kind("soft_db_connections")
    # 1 db / 1 app at the start: each pool gets the trained DB optimum.
    assert conn_sets and conn_sets[0].value == profile.db_optimal


def test_conscale_adapts_db_connections():
    res = run_experiment("conscale", small_config())
    conn_sets = res.actions.of_kind("soft_db_connections")
    assert conn_sets, "ConScale must re-allocate the DB connection pools"
    # estimates were produced for both managed tiers
    assert res.estimates[DB], "SCT estimates for the DB tier expected"
    # at least one actionable estimate near the true per-server optimum
    actionable = [e for e in res.estimates[DB] if e.actionable]
    assert actionable
    assert any(7 <= e.optimal <= 14 for e in actionable)


def test_conscale_caps_db_concurrency_below_static():
    res = run_experiment("conscale", small_config())
    values = [a.value for a in res.actions.of_kind("soft_db_connections")]
    assert min(values) < 40  # tightened below the static 40


def test_frameworks_share_hardware_policy_shape():
    """All three scale out on the dual-phase step; the count may differ
    by a VM or two but the direction must match."""
    maxima = {}
    for fw in ("ec2", "dcm", "conscale"):
        res = run_experiment(fw, small_config())
        maxima[fw] = int(res.vm_counts.max())
    assert all(v >= 4 for v in maxima.values())


def test_unknown_framework_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_experiment("k8s-hpa", small_config())


def test_runs_are_deterministic():
    a = run_experiment("ec2", small_config())
    b = run_experiment("ec2", small_config())
    assert a.completed == b.completed
    assert a.tail().p99 == pytest.approx(b.tail().p99)
    assert list(a.vm_counts) == list(b.vm_counts)


def test_latencies_reported_at_base_scale():
    """The load-scaling contract: reported latencies are divided by the
    scale, so an idle-ish request costs ~base demands, not scale x."""
    res = run_experiment("ec2", small_config())
    # the fastest requests should be near the base no-queue latency
    # (web+app+db ~ 27 ms), far below load_scale times that
    assert res.latencies.min() < 0.06
