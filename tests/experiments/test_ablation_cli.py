"""Tests for the ablation helpers and the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.experiments.ablation import (
    sct_tolerance_ablation,
    sct_window_ablation,
)


# ----------------------------------------------------------------------
# ablation helpers (small parameterisations)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tolerance_points():
    return sct_tolerance_ablation(
        tolerances=(0.03, 0.10), dwell=1.5, q_max=40
    )


def test_tolerance_ablation_widens_range(tolerance_points):
    narrow, wide = tolerance_points
    assert narrow.knob == 0.03 and wide.knob == 0.10
    assert (wide.q_upper - wide.q_lower) >= (narrow.q_upper - narrow.q_lower)


def test_window_ablation_flags_short_windows():
    points = sct_window_ablation(fractions=(0.1, 1.0), dwell=1.5, q_max=40)
    short, full = points
    assert short.note != ""  # unsaturated or failed
    assert full.q_lower is not None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_traces(capsys):
    assert main(["traces"]) == 0
    out = capsys.readouterr().out
    assert "large_variations" in out
    assert "big_spike" in out


def test_cli_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "run", "ec2", "--scale", "150", "--duration", "100",
        "--trace", "dual_phase",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "p99_ms" in out
    assert "ec2" in out


def test_cli_sweep(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "sweep", "db", "--levels", "4,10,20,40", "--duration", "8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Q_lower" in out


def test_cli_figure_9(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["figure", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Fig.9" in out
    assert (tmp_path / "results" / "fig9_big_spike.csv").exists()


def test_cli_rejects_unknown_framework():
    with pytest.raises(SystemExit):
        main(["run", "k8s"])


# ----------------------------------------------------------------------
# result persistence
# ----------------------------------------------------------------------

def test_result_summary_roundtrip(tmp_path):
    from repro.experiments.persistence import save_result
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import ScenarioConfig

    config = ScenarioConfig(
        name="persist", trace_name="dual_phase", load_scale=150.0,
        duration=120.0, seed=2,
    )
    result = run_experiment("ec2", config)
    path = save_result(result, str(tmp_path / "runs" / "ec2.json"))
    with open(path) as fh:
        summary = json.load(fh)
    assert summary["framework"] == "ec2"
    assert summary["scenario"]["trace"] == "dual_phase"
    assert summary["requests"]["completed"] == result.completed
    assert summary["tail_ms"]["p99"] == pytest.approx(
        result.tail().p99 * 1000
    )
    assert len(summary["timeline"]) > 5
    assert summary["vms"]["count"][0] == 3


def test_vm_seconds_cost_metric():
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import ScenarioConfig

    config = ScenarioConfig(
        name="cost", trace_name="dual_phase", load_scale=150.0,
        duration=120.0, seed=2,
    )
    result = run_experiment("ec2", config)
    cost = result.vm_seconds()
    # at least the 3 bootstrap VMs for the whole sampled window
    assert cost >= 3 * (result.vm_times[-1] - result.vm_times[0]) * 0.99
    # and bounded by max_vms * window
    window = result.vm_times[-1] - result.vm_times[0]
    assert cost <= result.vm_counts.max() * window * 1.01


def test_cli_predict(capsys):
    code = main(["predict", "--users", "25"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bottleneck tier: db" in out
    assert "throughput_rps" in out


@pytest.mark.parametrize("argv, field", [
    (["predict", "--think", "nan"], "think_time"),
    (["predict", "--think", "-5"], "think_time"),
    (["predict", "--app-cores", "nan"], "app_cores"),
    (["predict", "--app-cores", "inf"], "app_cores"),
    (["predict", "--dataset", "nan"], "dataset_scale"),
    (["sweep", "app", "--dataset", "nan", "--levels", "5", "--duration", "5"],
     "dataset_scale"),
    (["sweep", "db", "--cores", "nan", "--levels", "5", "--duration", "5"],
     "cores"),
    (["sweep", "db", "--dataset", "nan", "--levels", "5", "--duration", "5"],
     "dataset_scale"),
])
def test_cli_refuses_non_finite_calibration_inputs(argv, field, capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be finite" in err


@pytest.mark.parametrize("argv, named", [
    (["sweep", "db", "--levels", "abc"], "--levels"),
    (["sweep", "db", "--levels", "0"], "levels"),
    (["sweep", "db", "--levels", "-3"], "levels"),
    (["sweep", "db", "--levels", "5", "--duration", "nan"], "duration"),
    (["run", "conscale", "--topology", "1,0,1"], "topology"),
    (["run", "conscale", "--mode", "fluid"], "--mode"),
    (["run", "conscale", "--seed", "-1"], "seed"),
    (["run", "conscale", "--trace", "bogus"], "trace_name"),
    (["run", "conscale", "--param", "headroom=nan"], "headroom"),
    (["run", "conscale", "--param", "headroom=inf"], "headroom"),
    (["run", "conscale", "--param", "headroom=-1"], "headroom"),
    (["run", "qos", "--param", "slo_ms=nan"], "slo_ms"),
    (["run", "qos", "--param", "epsilon=2"], "epsilon"),
    (["run", "qos", "--param", "epsilon=1.5"], "epsilon"),
    (["run", "conscale", "--param", "per_server_app=true"], "per_server_app"),
])
def test_cli_refuses_bad_input_before_any_task(argv, named, capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a value outside choices
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err
    assert "running" not in err  # no task started
    assert "Traceback" not in err


def test_cli_compare_with_html(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    html = tmp_path / "cmp.html"
    code = main([
        "compare", "--trace", "dual_phase", "--scale", "150",
        "--duration", "100", "--html", str(html),
    ])
    assert code == 0
    content = html.read_text()
    assert content.count("<svg") == 3
    for fw in ("ec2", "dcm", "conscale", "predictive"):
        assert fw in content


def test_scenario_drift_check_flag():
    from repro.experiments.scenarios import ScenarioConfig

    assert ScenarioConfig().sct_drift_check is False
    assert ScenarioConfig(sct_drift_check=True).sct_drift_check is True


def test_cli_run_check_race(capsys, tmp_path, monkeypatch):
    """--check race prints the clean report and bypasses the cache."""
    monkeypatch.chdir(tmp_path)
    code = main([
        "run", "conscale", "--scale", "150", "--duration", "60",
        "--trace", "dual_phase", "--check", "race",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "race twin check clean" in out
    assert "p99_ms" not in out  # no normal summary
    assert not (tmp_path / "results" / "cache").exists()


def test_cli_run_check_divergence_exits_2(capsys, tmp_path, monkeypatch):
    """A real tie-order race (the VM sampler demoted into the
    controller's batch) exits 2 naming the diverging surface."""
    import repro.experiments.runner as runner_mod
    from repro.sim.engine import PRIORITY_CONTROLLER

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner_mod, "PRIORITY_SAMPLER", PRIORITY_CONTROLLER)
    code = main([
        "run", "conscale", "--scale", "300", "--duration", "40",
        "--trace", "dual_phase", "--seed", "2", "--check", "race",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: race twin check diverged" in err
    assert "vm timeline" in err
    assert "Traceback" not in err


def test_cli_run_check_fluid_rejects_discrete(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "run", "conscale", "--scale", "300", "--duration", "30",
        "--trace", "dual_phase", "--check", "fluid",
    ])
    assert code == 2
    assert "mode='discrete'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--duration", "--scale"])
def test_cli_run_refuses_a_non_finite_number(flag, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "conscale", flag, "nan", "--no-cache"])
    assert code == 2
    assert "must be finite, got nan" in capsys.readouterr().err


def _assert_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_run_calendar_check(capsys):
    """The per-harness check flags collapsed into --check."""
    for flag in ("--calendar-check", "--race-check", "--fluid-check"):
        _assert_rejected(["run", "conscale", flag], capsys)


def test_cli_run_heap_calendar(capsys):
    """The heap calendar left the engine, and its selector with it."""
    _assert_rejected(["run", "conscale", "--calendar", "heap"], capsys)


def test_cli_run_profile_writes_pstats(capsys, tmp_path, monkeypatch):
    import pstats

    monkeypatch.chdir(tmp_path)
    code = main([
        "run", "conscale", "--scale", "150", "--duration", "60",
        "--trace", "dual_phase", "--profile",
    ])
    assert code == 0
    dumps = list((tmp_path / "results").glob("profile_*.pstats"))
    assert len(dumps) == 1
    stats = pstats.Stats(str(dumps[0]))
    assert stats.total_calls > 0
    err = capsys.readouterr().err
    assert "dump written to" in err
    assert re.search(r"\(\d+\.\d per completed request\)", err)
