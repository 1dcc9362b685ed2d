"""Tests for the sweep harness and the text/CSV reporting."""

import math
import os

import pytest

from repro.errors import ExperimentError
from repro.experiments.calibration import ample_capacity, db_capacity_cpu
from repro.experiments.report import ascii_chart, format_table, write_csv
from repro.experiments.sweep import concurrency_sweep, find_q_lower
from repro.workload.mixes import browse_only_mix

BASE = {"web": (0.0003, 0.1), "app": (0.002, 0.2), "db": (0.010, 0.3)}


# ----------------------------------------------------------------------
# find_q_lower
# ----------------------------------------------------------------------

def test_find_q_lower_basic():
    levels = [2, 5, 10, 20, 40]
    tps = [20.0, 50.0, 100.0, 99.0, 60.0]
    assert find_q_lower(levels, tps, tolerance=0.05) == 10


def test_find_q_lower_ignores_order():
    assert find_q_lower([40, 10, 2], [60.0, 100.0, 20.0]) == 10


def test_find_q_lower_validation():
    with pytest.raises(ExperimentError):
        find_q_lower([], [])
    with pytest.raises(ExperimentError):
        find_q_lower([1, 2], [1.0])


# ----------------------------------------------------------------------
# concurrency sweep (small but real)
# ----------------------------------------------------------------------

def test_sweep_reproduces_mysql_knee():
    mix = browse_only_mix(BASE)
    caps = {"web": ample_capacity(), "app": ample_capacity(),
            "db": db_capacity_cpu(1.0)}
    res = concurrency_sweep(
        "db", caps, mix, [2, 5, 8, 10, 12, 16, 24, 40], duration=12.0
    )
    assert res.q_lower() in (8, 10, 12)
    # pinned concurrency: the measurement must match the cap closely
    for p in res.points:
        assert p.measured_concurrency == pytest.approx(p.concurrency, rel=0.15)
    # RT grows monotonically-ish past the knee
    rts = [p.response_time for p in res.points]
    assert rts[-1] > 2.0 * rts[0]


def test_sweep_validation():
    mix = browse_only_mix(BASE)
    caps = {"web": ample_capacity(), "app": ample_capacity(),
            "db": db_capacity_cpu(1.0)}
    with pytest.raises(ExperimentError):
        concurrency_sweep("cache", caps, mix, [2])
    with pytest.raises(ExperimentError):
        concurrency_sweep("db", caps, mix, [])
    for levels in ([0], [-3, 5]):
        with pytest.raises(ExperimentError, match="levels must be >= 1"):
            concurrency_sweep("db", caps, mix, levels)
    for duration in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ExperimentError, match="duration must be finite"):
            concurrency_sweep("db", caps, mix, [2], duration=duration)


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [[1, 2.5], [10, 300.123]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "bbbb" in lines[0]
    assert "300" in lines[-1]


def test_format_table_nan_dash():
    text = format_table(["x"], [[float("nan")]])
    assert "-" in text.splitlines()[-1]


def test_ascii_chart_renders():
    chart = ascii_chart([0, 1, 2, 3], [0.0, 1.0, 4.0, 9.0], width=20, height=6,
                        label="demo")
    assert "demo" in chart
    assert "*" in chart


def test_ascii_chart_handles_insufficient_data():
    assert "not enough" in ascii_chart([1], [1.0])


def test_write_csv(tmp_path):
    path = write_csv(str(tmp_path / "sub" / "t.csv"), ["a", "b"], [[1, 2], [3, 4]])
    assert os.path.exists(path)
    content = open(path).read().strip().splitlines()
    assert content[0] == "a,b"
    assert content[2] == "3,4"
