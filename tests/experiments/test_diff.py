"""``repro diff``: decision-trace divergence between cached runs."""

from __future__ import annotations

import pytest

from repro.errors import CacheMissError, ExperimentError
from repro.experiments.artifact import RunOverrides, RunSpec
from repro.experiments.diff import diff_artifacts
from repro.experiments.engine import ExperimentEngine
from repro.experiments.runner import execute_spec

from tests.experiments.test_engine import small_config


@pytest.fixture(scope="module")
def base_artifact():
    return execute_spec(RunSpec("conscale", small_config()))


@pytest.fixture(scope="module")
def wide_artifact():
    return execute_spec(
        RunSpec("conscale", small_config(), RunOverrides.from_params({"headroom": 3.0}))
    )


def test_identical_specs_report_no_divergence(base_artifact):
    again = execute_spec(RunSpec("conscale", small_config()))
    diff = diff_artifacts(base_artifact, again)
    assert diff.identical
    assert diff.divergence is None
    assert "no divergence" in diff.render()
    assert diff.events_a == diff.events_b


def test_headroom_override_diverges(base_artifact, wide_artifact):
    diff = diff_artifacts(base_artifact, wide_artifact)
    assert not diff.identical
    d = diff.divergence
    assert d is not None and d.time > 0.0
    # at least one side has a concrete event at the divergence point
    assert d.event_a is not None or d.event_b is not None
    text = diff.render()
    assert "first divergence at t=" in text
    assert "headroom=3" in text  # the override is visible in the label


def test_diff_reports_cap_decision_deltas(base_artifact, wide_artifact):
    diff = diff_artifacts(base_artifact, wide_artifact)
    assert diff.cap_deltas, "ConScale runs must produce soft cap decisions"
    assert any(d.changed for d in diff.cap_deltas), (
        "a 3x headroom must move at least one cap decision"
    )
    kinds = {d.kind for d in diff.cap_deltas}
    assert kinds <= {
        "soft_app_threads", "soft_db_connections", "soft_web_threads"
    }
    assert "cap decisions" in diff.render()


def test_diff_reports_tail_deltas(base_artifact, wide_artifact):
    diff = diff_artifacts(base_artifact, wide_artifact)
    for side in (diff.tail_ms_a, diff.tail_ms_b):
        assert set(side) == {"p50", "p95", "p99"}
        assert all(v > 0 for v in side.values())
    assert "p99" in diff.render()


def test_diff_across_frameworks_same_scenario(base_artifact):
    ec2 = execute_spec(RunSpec("ec2", small_config()))
    diff = diff_artifacts(base_artifact, ec2)
    assert not diff.identical


def test_diff_rejects_different_scenarios(base_artifact):
    other = execute_spec(RunSpec("conscale", small_config(seed=3)))
    with pytest.raises(ExperimentError, match="different scenarios"):
        diff_artifacts(base_artifact, other)


def test_material_only_divergence(base_artifact, wide_artifact):
    diff = diff_artifacts(base_artifact, wide_artifact, include_noops=False)
    assert not diff.identical
    assert diff.divergence.event_a is None or not diff.divergence.event_a.is_noop


# ----------------------------------------------------------------------
# cache-only execution (what the CLI diff path relies on)
# ----------------------------------------------------------------------

def test_require_cached_raises_clean_miss(tmp_path):
    engine = ExperimentEngine(
        cache_dir=str(tmp_path / "cache"), require_cached=True
    )
    spec = RunSpec("conscale", small_config())
    with pytest.raises(CacheMissError, match=spec.label):
        engine.run(spec)
    assert engine.executed == 0


def test_require_cached_serves_stored_entries(tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = RunSpec("ec2", small_config())
    warm = ExperimentEngine(cache_dir=cache_dir)
    stored = warm.run(spec)
    strict = ExperimentEngine(cache_dir=cache_dir, require_cached=True)
    cached = strict.run(spec)
    assert cached.signature() == stored.signature()
    assert strict.executed == 0


def test_require_cached_needs_cache_enabled():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ExperimentEngine(use_cache=False, require_cached=True)


# ----------------------------------------------------------------------
# CLI integration: run twice, diff, and the exit-2 miss path
# ----------------------------------------------------------------------

COMMON = ["--trace", "dual_phase", "--scale", "300",
          "--duration", "60", "--seed", "2"]


def test_cli_diff_end_to_end(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["run", "conscale", *COMMON]) == 0
    assert main(["run", "conscale", *COMMON, "--param", "headroom=3.0"]) == 0
    capsys.readouterr()

    assert main(["diff", "conscale", *COMMON, "--param-b", "headroom=3.0"]) == 0
    out = capsys.readouterr().out
    assert "first divergence at t=" in out
    assert "p99" in out

    # identical sides: clean "no divergence" report
    assert main(["diff", "conscale", *COMMON]) == 0
    assert "no divergence" in capsys.readouterr().out


def test_cli_diff_cold_cache_exits_2(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["diff", "conscale", *COMMON]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "no usable cache entry" in err
    assert "Traceback" not in err


def test_cli_run_cached_only_exits_2(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["run", "ec2", *COMMON, "--cached-only"]) == 2
    assert "no usable cache entry" in capsys.readouterr().err


def test_cli_headroom_rejected_for_non_conscale(capsys, tmp_path, monkeypatch):
    # `headroom` is a ConScale controller param, so on a framework
    # without one the registry rejects it with the schema spelled out.
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["run", "ec2", *COMMON, "--param", "headroom=2.0"]) == 2
    assert "has no param 'headroom'" in capsys.readouterr().err
