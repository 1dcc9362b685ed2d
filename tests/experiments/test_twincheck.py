"""The twin-check table, its default suites and the divergence error.

The per-check behaviour lives next to what each check guards:
``tests/sim/test_racecheck.py`` (tie order) and
``tests/experiments/test_fluid_equiv.py`` (fluid vs discrete).
"""

import hashlib

import pytest

import repro.experiments.twincheck as twin_mod
from repro.errors import ConfigurationError, SimulationError, TwinDivergenceError
from repro.experiments.artifact import RunSpec
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.twincheck import (
    CHECKS,
    default_specs,
    run_twin_check,
    run_twin_suite,
)
from repro.workload.shapes import TRACE_NAMES, steady_trace_csv


def _spec(duration: float = 30.0) -> RunSpec:
    return RunSpec(
        framework="conscale",
        config=ScenarioConfig(
            name="twincheck-test", trace_name="dual_phase",
            load_scale=300.0, duration=duration, seed=2,
        ),
    )


def test_table_names_the_checks():
    assert sorted(CHECKS) == ["fluid", "race"]
    assert issubclass(TwinDivergenceError, SimulationError)


def test_unknown_check_raises():
    with pytest.raises(ConfigurationError, match="unknown twin check"):
        run_twin_check(_spec(), "calendar")
    with pytest.raises(ConfigurationError, match="unknown twin check"):
        default_specs("perf")


def test_race_specs_cover_all_traces_plus_faulted():
    specs = default_specs("race", duration=20.0)
    assert len(specs) == len(TRACE_NAMES) + 1
    assert [s.config.trace_name for s in specs[:-1]] == list(TRACE_NAMES)
    faulted = specs[-1]
    assert faulted.faults is not None and len(faulted.faults.specs) == 2
    # Two app replicas so the mid-run crash leaves the tier routable.
    assert faulted.config.topology == (1, 2, 1)


def test_divergence_names_check_spec_and_every_surface(monkeypatch):
    """A variant-only corruption of two surfaces is reported with both
    names, the check and the spec label."""
    real_execute = twin_mod.execute_spec

    def skewed(spec, sim=None):
        result = real_execute(spec, sim=sim)
        if sim is not None and sim.tie_order == "reverse":
            result.completed += 1
            result.vm_counts = result.vm_counts + 1
        return result

    monkeypatch.setattr(twin_mod, "execute_spec", skewed)
    spec = _spec(20.0)
    with pytest.raises(TwinDivergenceError) as excinfo:
        run_twin_check(spec, "race")
    message = str(excinfo.value)
    assert message.startswith(f"race twin check diverged on {spec.label}: ")
    assert "request records" in message
    assert "vm timeline" in message


def test_race_suite_runs_explicit_spec_list():
    reports = run_twin_suite("race", [_spec(20.0)])
    assert len(reports) == 1
    assert reports[0].check == "race" and reports[0].events_executed > 0


def test_race_suite_clean_at_head():
    """The acceptance gate: all six trace shapes plus the faulted run
    are tie-order independent, and none of the checks is vacuous."""
    reports = run_twin_suite("race")
    assert len(reports) == len(TRACE_NAMES) + 1
    assert all(r.tie_batches > 0 for r in reports)
    assert len({r.spec_digest for r in reports}) == len(reports)


def test_steady_trace_csv_path_and_bytes_are_stable(tmp_path):
    """The steady trace's path and bytes feed spec digests (the fluid
    suite's and the steady-hybrid benchmark's), so both are pinned."""
    path = steady_trace_csv(str(tmp_path), users=4000.0, duration=300.0)
    assert path == str(tmp_path / "repro_steady_4000_300.csv")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == (
        "1df9b2f7eb6ac99eea8b41c2e1606a25f934cff3102e02692bdcf0d563272945"
    )
    # Written once: a second call reuses the file.
    assert steady_trace_csv(str(tmp_path), users=4000.0, duration=300.0) == path


def test_fluid_suite_clean_at_head():
    """All three fluid storylines stay inside the tolerance band, and
    the steady ones (where ``require_fluid`` is enforced) go fluid."""
    reports = run_twin_suite("fluid")
    assert len(reports) == 3
    assert reports[0].fluid_entries >= 1 and reports[2].fluid_entries >= 1
