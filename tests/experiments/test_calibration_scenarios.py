"""Tests for the calibration anchors and scenario configuration."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.calibration import (
    Calibration,
    ample_capacity,
    app_capacity,
    db_capacity_cpu,
    db_capacity_io,
    default_calibration,
    web_capacity,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.workload.shapes import TRACE_NAMES


# ----------------------------------------------------------------------
# calibration anchors (the paper's measured numbers)
# ----------------------------------------------------------------------

def test_mysql_qlower_anchor():
    assert db_capacity_cpu(1.0).saturation_concurrency == pytest.approx(10.0)
    assert db_capacity_cpu(2.0).saturation_concurrency == pytest.approx(20.0)


def test_mysql_io_anchor():
    cap = db_capacity_io(1.0)
    assert cap.critical_resource.name == "disk"
    assert cap.saturation_concurrency == pytest.approx(5.0)


def test_tomcat_dataset_anchor():
    base = app_capacity(1.0, 1.0).saturation_concurrency
    enlarged = app_capacity(1.0, 2.0).saturation_concurrency
    reduced = app_capacity(1.0, 0.5).saturation_concurrency
    assert base == pytest.approx(20.0)
    assert enlarged == pytest.approx(base / 2**0.5, rel=0.01)
    assert reduced == pytest.approx(base * 2**0.5, rel=0.01)


def test_web_is_not_a_bottleneck():
    assert web_capacity().saturation_concurrency >= 100


def test_ample_capacity_is_huge():
    assert ample_capacity().saturation_concurrency >= 1000


def test_descending_stage_severity():
    """Two Tomcats' worth of default conns (~80) on one MySQL must cost
    at least half its peak capacity — the Fig. 10 collapse."""
    cap = db_capacity_cpu(1.0)
    assert cap.contention.penalty(80) < 0.5
    assert cap.contention.penalty(12) > 0.9


def test_calibration_capacity_builder():
    cal = Calibration(io_intensive=True)
    assert cal.capacity("db").critical_resource.name == "disk"
    cal2 = Calibration(db_cores=2.0)
    assert cal2.capacity("db").saturation_concurrency == pytest.approx(20.0)
    with pytest.raises(KeyError):
        cal.capacity("cache")


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_capacity_builders_refuse_bad_cores_and_dataset(value):
    for build in (web_capacity, app_capacity, db_capacity_cpu, db_capacity_io):
        with pytest.raises(ConfigurationError, match="cores must be finite and > 0"):
            build(value)
    with pytest.raises(ConfigurationError, match="dataset_scale must be finite"):
        app_capacity(1.0, value)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "name", ["web_cores", "app_cores", "db_cores", "dataset_scale"]
)
def test_calibration_refuses_bad_cores_and_dataset(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite and > 0"):
        Calibration(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -5.0])
def test_calibration_refuses_bad_think_time(value):
    with pytest.raises(ConfigurationError, match="think_time must be finite and >= 0"):
        Calibration(think_time=value)
    assert Calibration(think_time=0.0).think_time == 0.0


_DEMANDS = Calibration().base_demands


@pytest.mark.parametrize(
    "base_demands, match",
    [
        ({"web": _DEMANDS["web"], "app": _DEMANDS["app"]}, "no 'db' tier"),
        ({**_DEMANDS, "cache": (0.001, 0.1)}, "unknown tier 'cache'"),
        ({**_DEMANDS, "db": (math.nan, 0.3)}, r"\['db'\].*mean must be finite"),
        ({**_DEMANDS, "app": (-0.01, 0.3)}, r"\['app'\].*mean must be finite"),
        ({**_DEMANDS, "db": (0.01, math.inf)}, r"\['db'\].*cv must be finite"),
        ({**_DEMANDS, "web": (0.0003,)}, r"\['web'\]"),
    ],
    ids=["missing-db", "unknown-tier", "nan-mean", "negative-mean", "inf-cv",
         "not-a-pair"],
)
def test_calibration_refuses_bad_base_demands(base_demands, match):
    """Refused by name when built: a missing tier would raise KeyError at
    the first request, a NaN mean ran with zero-cost phases, and an
    infinite cv raised ZeroDivisionError in the sampler."""
    with pytest.raises(ConfigurationError, match=f"base_demands.*{match}"):
        Calibration(base_demands=base_demands)


def test_default_calibration_tiers_balanced():
    """App and DB single-server peak throughputs must be within ~2x so
    both tiers scale during the evaluation runs (as in the paper)."""
    cal = default_calibration()
    from repro.workload.mixes import browse_only_mix

    mix = browse_only_mix(cal.base_demands)
    _, tp_db = cal.capacity("db").peak(mix.mean_demand("db"))
    _, tp_app = cal.capacity("app").peak(mix.mean_demand("app"))
    assert 0.5 < tp_app / tp_db < 2.0


# ----------------------------------------------------------------------
# scenario config
# ----------------------------------------------------------------------

def test_scenario_defaults():
    cfg = ScenarioConfig()
    assert cfg.topology == (1, 1, 1)
    assert cfg.soft.web_threads == 1000
    assert cfg.soft.app_threads == 60
    assert cfg.soft.db_connections == 40


def test_scenario_load_scaling_contract():
    cfg = ScenarioConfig(load_scale=25.0, max_users=7500.0)
    assert cfg.scaled_users == 300.0
    assert cfg.demand_scale == 25.0
    assert cfg.rt_scale == 25.0


def test_fine_interval_scales_with_sqrt():
    assert ScenarioConfig(load_scale=1.0).effective_fine_interval() == pytest.approx(0.05)
    assert ScenarioConfig(load_scale=25.0).effective_fine_interval() == pytest.approx(0.25)
    assert ScenarioConfig(
        load_scale=25.0, fine_interval=0.1
    ).effective_fine_interval() == 0.1


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(load_scale=0.5)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(workload_mode="mixed")
    with pytest.raises(ConfigurationError):
        ScenarioConfig(duration=0.0)


@pytest.mark.parametrize(
    "topology", [(1, 0, 1), (1, 1, 0), (1, -2, 1), (0, 1, 1), (1, 1), (1, 1, 1, 1)]
)
def test_scenario_refuses_a_tier_without_replicas(topology):
    with pytest.raises(ConfigurationError, match="topology must be three"):
        ScenarioConfig(topology=topology)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["duration", "max_users", "load_scale"])
def test_scenario_refuses_non_finite_numbers(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 2.0, "3", None],
                         ids=["negative", "numpy-negative", "float", "str", "none"])
def test_scenario_refuses_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        ScenarioConfig(seed=seed)


@pytest.mark.parametrize("trace", ["bogus", "dual-phase", "trace.txt", ""])
def test_scenario_refuses_an_unknown_trace_name(trace):
    with pytest.raises(ConfigurationError, match="trace_name must be one of"):
        ScenarioConfig(trace_name=trace)


def test_scenario_takes_named_traces_and_csv_paths():
    for name in TRACE_NAMES:
        assert ScenarioConfig(trace_name=name).trace_name == name
    assert ScenarioConfig(trace_name="my_trace.csv").trace_name == "my_trace.csv"


def test_scenario_takes_numpy_integer_seeds():
    assert ScenarioConfig(seed=np.int64(4)).seed == 4
    assert ScenarioConfig(seed=0).seed == 0


def test_with_update():
    cfg = ScenarioConfig().with_(seed=9, trace_name="big_spike")
    assert cfg.seed == 9
    assert cfg.trace_name == "big_spike"
    # original untouched (frozen)
    assert ScenarioConfig().seed == 1
