"""Tests for the ``fluid`` twin check and the runner's mode wiring."""

import dataclasses

import numpy as np
import pytest

import repro.experiments.twincheck as twin_mod
from repro.errors import ConfigurationError, TwinDivergenceError
from repro.experiments.artifact import RunSpec
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.twincheck import (
    TwinCheckReport,
    _mode_accounting,
    default_specs,
    run_twin_check,
    run_twin_suite,
)
from repro.faults.plan import parse_faults
from repro.workload.shapes import steady_trace_csv


def _steady_spec(duration: float = 120.0, **overrides) -> RunSpec:
    config = ScenarioConfig(
        name="fluidequiv-steady-test",
        trace_name=steady_trace_csv(users=4000.0, duration=duration),
        load_scale=300.0, duration=duration, seed=11,
        topology=(1, 2, 2), mode="hybrid",
    )
    if overrides:
        config = config.with_(**overrides)
    return RunSpec(framework="conscale", config=config)


# ----------------------------------------------------------------------
# scenario-config surface (mode / arrivals / demand distribution)
# ----------------------------------------------------------------------

def test_new_fields_validated():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(name="x", trace_name="dual_phase", mode="analytic")
    with pytest.raises(ConfigurationError):
        ScenarioConfig(name="x", trace_name="dual_phase", arrivals="batch")
    with pytest.raises(ConfigurationError):
        ScenarioConfig(
            name="x", trace_name="dual_phase", demand_distribution="pareto"
        )
    with pytest.raises(ConfigurationError, match="open arrivals"):
        ScenarioConfig(
            name="x", trace_name="dual_phase", mode="hybrid", arrivals="closed"
        )


def test_pinned_fluid_mode_is_refused():
    # Fluid steps run only inside hybrid, under the governor.
    with pytest.raises(
        ConfigurationError, match=r"\('discrete', 'hybrid'\), got 'fluid'"
    ):
        ScenarioConfig(name="x", trace_name="dual_phase", mode="fluid")


@pytest.mark.parametrize("mode", ["hybrid"])
def test_fluid_modes_refuse_non_gamma_demand(mode):
    # The fluid integrator draws gamma service times whatever the
    # configured distribution, so a lognormal run would get wrong tails.
    with pytest.raises(ConfigurationError, match="gamma service demand only"):
        ScenarioConfig(
            name="x", trace_name="dual_phase", mode=mode,
            demand_distribution="lognormal",
        )


def test_explicit_defaults_keep_spec_digest():
    """mode/arrivals/distribution defaults must not perturb existing
    spec digests — the cache and the byte-identity contract depend on
    the default configuration hashing exactly as before."""
    base = ScenarioConfig(name="d", trace_name="dual_phase", seed=3)
    explicit = base.with_(
        mode="discrete", arrivals="open", demand_distribution="gamma"
    )
    assert RunSpec("conscale", base).digest() == RunSpec(
        "conscale", explicit
    ).digest()


def test_each_new_field_changes_spec_digest():
    base = ScenarioConfig(name="d", trace_name="dual_phase", seed=3)
    digests = {
        RunSpec("conscale", base).digest(),
        RunSpec("conscale", base.with_(mode="hybrid")).digest(),
        RunSpec("conscale", base.with_(arrivals="closed")).digest(),
        RunSpec(
            "conscale", base.with_(demand_distribution="lognormal")
        ).digest(),
    }
    assert len(digests) == 4


# ----------------------------------------------------------------------
# the fluid twin check
# ----------------------------------------------------------------------

def test_check_rejects_discrete_spec():
    with pytest.raises(ConfigurationError, match="mode='discrete'"):
        run_twin_check(_steady_spec(duration=30.0, mode="discrete"), "fluid")


def test_steady_hybrid_check_passes():
    spec = _steady_spec()
    report = run_twin_check(spec, "fluid", require_fluid=True)
    assert isinstance(report, TwinCheckReport)
    assert report.check == "fluid"
    assert report.spec_digest == spec.digest()
    assert report.fluid_entries >= 1
    assert report.completed[0] > 0 and report.completed[1] > 0
    assert set(report.percentiles) == {50, 95, 99}
    assert report.describe().startswith("fluid twin check clean")


def test_vacuous_hybrid_run_raises(tmp_path):
    """A hybrid run whose governor never leaves discrete mode must not
    pass silently when fluid coverage was required."""
    from repro.workload.trace import Trace

    # A sawtooth swinging 100 <-> 500 every 10 s: every 15 s inspection
    # window sees most of the swing, so the governor never goes fluid.
    saw = str(tmp_path / "saw.csv")
    knots = [0.0, 10.0, 20.0, 30.0]
    Trace("saw", knots, [2000.0, 8000.0, 2000.0, 8000.0]).to_csv(saw)
    spec = _steady_spec(duration=30.0, trace_name=saw)
    with pytest.raises(TwinDivergenceError, match="never entered"):
        run_twin_check(spec, "fluid", require_fluid=True)


def test_throughput_divergence_raises(monkeypatch):
    real_execute = twin_mod.execute_spec

    def skewed(spec, sim=None):
        result = real_execute(spec, sim=sim)
        if spec.config.mode != "discrete":
            result.completed = int(result.completed * 0.8)
        return result

    monkeypatch.setattr(twin_mod, "execute_spec", skewed)
    spec = _steady_spec()
    with pytest.raises(TwinDivergenceError, match="throughput divergence") as excinfo:
        run_twin_check(spec, "fluid")
    assert str(excinfo.value).startswith(
        f"fluid twin check diverged on {spec.label}"
    )


def test_latency_divergence_raises(monkeypatch):
    real_execute = twin_mod.execute_spec

    def skewed(spec, sim=None):
        result = real_execute(spec, sim=sim)
        if spec.config.mode != "discrete":
            # Stretch every latency threefold by moving its completion.
            result.completion_times = result.arrival_times + 3.0 * (
                result.completion_times - result.arrival_times
            )
        return result

    monkeypatch.setattr(twin_mod, "execute_spec", skewed)
    with pytest.raises(TwinDivergenceError, match="latency divergence") as excinfo:
        run_twin_check(_steady_spec(), "fluid")
    # Every diverging percentile is named, not just the first.
    assert str(excinfo.value).count("latency divergence") >= 2


def test_default_specs_cover_three_storylines():
    specs = default_specs("fluid", duration=60.0)
    assert len(specs) == 3
    names = [s.config.name for s in specs]
    assert names == [
        "fluidequiv-steady", "fluidequiv-burst", "fluidequiv-faulted"
    ]
    assert all(s.config.mode == "hybrid" for s in specs)
    faulted = specs[-1]
    assert faulted.faults is not None and len(faulted.faults.specs) == 1
    # Two app replicas so the mid-run crash leaves the tier routable.
    assert faulted.config.topology == (1, 2, 2)


def test_suite_runs_explicit_spec_list():
    reports = run_twin_suite("fluid", [_steady_spec()])
    assert len(reports) == 1 and reports[0].fluid_entries >= 1


# ----------------------------------------------------------------------
# telemetry continuity + determinism across mode switches
# ----------------------------------------------------------------------

def test_warehouse_telemetry_continuous_across_switches():
    """Fine-grained interval series must show no gaps or double-counts
    across discrete/fluid transitions: uniform sample spacing, and the
    web tier's interval completions summing to the run's total."""
    artifact = execute_spec(_steady_spec())
    entered, _ = _mode_accounting(artifact)
    assert entered >= 1  # the run actually switched modes
    for series in artifact.fine_series.values():
        spacing = np.diff(series.t_end)
        assert spacing.size > 0
        assert np.allclose(spacing, spacing[0])
    web_completions = sum(
        int(s.completions.sum())
        for s in artifact.fine_series.values()
        if s.tier == "web"
    )
    assert web_completions == artifact.completed


def test_race_check_clean_on_hybrid_run():
    """Mode switching must not introduce tie-order races: all observable
    surfaces identical under permuted same-timestamp execution."""
    report = run_twin_check(_steady_spec(duration=60.0), "race")
    assert report.events_executed > 0
    assert report.fluid_entries >= 1  # the run actually switched modes


# ----------------------------------------------------------------------
# faults and closed arrivals through the runner
# ----------------------------------------------------------------------

def test_client_timeout_fault_in_hybrid():
    """Hybrid keeps a client-timeout fault window discrete, so impatient
    clients do retry, and the fault window is recorded."""
    plan = parse_faults("timeout:40:30:1.0")
    artifact = execute_spec(dataclasses.replace(_steady_spec(), faults=plan))
    assert artifact.completed > 0
    assert artifact.generated == artifact.completed + artifact.failed
    kinds = [e.kind for e in artifact.actions.faults()]
    assert kinds == ["fault_injected", "fault_recovered"]
    assert artifact.retried > 0


def test_closed_arrivals_end_to_end():
    config = ScenarioConfig(
        name="closed-arrivals-test", trace_name="dual_phase",
        load_scale=300.0, duration=30.0, seed=5, arrivals="closed",
    )
    artifact = execute_spec(RunSpec(framework="conscale", config=config))
    assert artifact.completed > 0
    assert artifact.generated >= artifact.completed
