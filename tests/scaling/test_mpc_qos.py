"""Acceptance tests for the MPC-hybrid and QoS-robust baselines.

The issue's bar for the two new controllers: they run every one of the
six trace shapes deterministically (identical signatures on repeat,
inline and in a process pool, tie-order race check clean) and
they emit their registered advisory decision kinds — ``forecast`` /
``mpc_correction`` for MPC, ``qos_constraint`` for QoS — so their
reasoning is auditable through ``repro diff`` like every other
framework's.

Runs use the reduced scale of ``test_engine`` (load_scale 300, 60 s).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.artifact import RunOverrides, RunSpec
from repro.experiments.engine import ExperimentEngine
from repro.experiments.twincheck import run_twin_check
from repro.experiments.runner import execute_spec
from repro.workload import TRACE_NAMES
from tests.experiments.test_engine import small_config

#: Params that force the QoS chance constraint to actually breach at
#: test scale: a 20 ms objective with a 1 % tolerated violation rate.
TIGHT_QOS = {"slo_ms": 20.0, "epsilon": 0.01}


@pytest.fixture(scope="module")
def mpc_artifact():
    return execute_spec(RunSpec("mpc", small_config()))


@pytest.fixture(scope="module")
def qos_artifact():
    return execute_spec(
        RunSpec("qos", small_config(), RunOverrides.from_params(TIGHT_QOS))
    )


# ----------------------------------------------------------------------
# the controllers do their distinctive thing, auditable in the trace
# ----------------------------------------------------------------------

def test_mpc_emits_forecast_and_corrections(mpc_artifact):
    forecasts = mpc_artifact.actions.of_kind("forecast")
    corrections = mpc_artifact.actions.of_kind("mpc_correction")
    assert forecasts, "MPC never produced a workload forecast"
    assert corrections, "MPC never corrected a concurrency cap"
    # Forecasts carry the predicted throughput and the trend behind it.
    assert all(e.estimate is not None for e in forecasts)
    assert all("trend" in e.reason for e in forecasts)
    # Corrections justify the cap with the MVA model's throughput.
    assert all(e.value is not None and e.estimate is not None
               for e in corrections)


def test_mpc_corrections_actuate_soft_caps(mpc_artifact):
    soft = mpc_artifact.actions.of_kind(
        "soft_app_threads", "soft_db_connections"
    )
    assert soft, "MPC cap corrections never reached the actuator"
    assert all(e.value >= 1 for e in soft)


def test_qos_emits_chance_constraint_breaches(qos_artifact):
    breaches = qos_artifact.actions.of_kind("qos_constraint")
    assert breaches, "tight SLO produced no constraint-breach events"
    for e in breaches:
        assert 0.0 <= e.estimate <= 1.0  # a violation probability
        assert "P(RT>20ms)" in e.reason
    # Sustained breaches must translate into scale-ups or scale-outs.
    acted = qos_artifact.actions.of_kind(
        "scale_out_started", "scale_up_started"
    )
    assert acted, "sustained breaches never triggered scaling"


def test_qos_violation_probability_weights_by_completions():
    """Whole completion counts summed over every server's window; an
    interval without completions (NaN response time) weighs nothing."""
    from types import SimpleNamespace

    from repro.monitoring.interval import IntervalWindow
    from repro.scaling.qos import QoSRobustController

    def window(rts, completions):
        n = len(rts)
        return IntervalWindow.from_columns(
            t_end=np.arange(n, dtype=float), concurrency=np.ones(n),
            throughput=np.ones(n), response_time=rts,
            completions=completions, util=np.ones(n),
        )

    fine = {"db-1": window([0.2], [13]),
            "db-2": window([0.5, float("nan"), 0.05], [3, 0, 4])}
    controller = SimpleNamespace(
        slo=0.1,
        warehouse=SimpleNamespace(fine_samples_for_tier=lambda tier, w: fine),
    )
    prob = QoSRobustController.violation_probability(controller, "db")
    assert prob == (13 + 3) / 20
    # One completion fewer is below the 20-completion evidence floor.
    fine["db-2"] = window([0.5, float("nan"), 0.05], [3, 0, 3])
    assert QoSRobustController.violation_probability(controller, "db") is None


def test_qos_default_slo_mostly_quiet():
    relaxed = execute_spec(RunSpec("qos", small_config()))
    tight = execute_spec(
        RunSpec("qos", small_config(), RunOverrides.from_params(TIGHT_QOS))
    )
    n_relaxed = len(relaxed.actions.of_kind("qos_constraint"))
    n_tight = len(tight.actions.of_kind("qos_constraint"))
    assert n_tight > n_relaxed  # the SLO param is material, not cosmetic


# ----------------------------------------------------------------------
# determinism across repeats, process pools, and tie orders
# ----------------------------------------------------------------------

@pytest.mark.parametrize("framework", ["mpc", "qos"])
def test_repeat_run_identical(framework, mpc_artifact, qos_artifact):
    base = mpc_artifact if framework == "mpc" else qos_artifact
    spec = base.spec
    assert execute_spec(spec).signature() == base.signature()


@pytest.mark.parametrize("framework", ["mpc", "qos"])
def test_identical_on_process_backend(framework, mpc_artifact, qos_artifact):
    base = mpc_artifact if framework == "mpc" else qos_artifact
    filler = RunSpec("ec2", small_config())  # forces a real pool
    via_pool = ExperimentEngine(jobs=2, use_cache=False).run_many(
        [base.spec, filler]
    )[0]
    assert via_pool.signature() == base.signature()


@pytest.mark.parametrize("framework", ["mpc", "qos"])
def test_all_six_trace_shapes_deterministic(framework):
    for trace in TRACE_NAMES:
        spec = RunSpec(framework, small_config(trace_name=trace))
        first = execute_spec(spec)
        assert execute_spec(spec).signature() == first.signature(), (
            f"{framework} non-deterministic on {trace}"
        )
        assert first.completed > 0


@pytest.mark.parametrize("framework", ["mpc", "qos"])
def test_race_check_clean(framework):
    params = TIGHT_QOS if framework == "qos" else None
    spec = RunSpec(
        framework, small_config(), RunOverrides.from_params(params)
    )
    report = run_twin_check(spec, "race")  # raises TwinDivergenceError on a race
    assert report.spec_digest == spec.digest()
    assert report.tie_batches > 0  # the permutation actually bit


# ----------------------------------------------------------------------
# head-to-head: the new baselines ride compare/resilience like the rest
# ----------------------------------------------------------------------

def test_compare_includes_new_baselines(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([
        "compare", "--trace", "dual_phase", "--scale", "300",
        "--duration", "60", "--seed", "2",
    ]) == 0
    out = capsys.readouterr().out
    for name in ("ec2", "dcm", "conscale", "predictive", "mpc", "qos"):
        assert name in out
