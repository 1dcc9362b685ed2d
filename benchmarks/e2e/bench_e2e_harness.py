"""Harness test for the end-to-end benchmark, at smoke size.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/bench_e2e_harness.py

Runs ``run.py --smoke`` untraced and traced (60 s of simulated time per
workload, through the same code path as the full size) and checks that
every metric ``BENCHMARK.json`` names is reported with its unit for
every workload, that every correctness check passes, and that the run
leaves the working tree as it found it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def _git_status() -> str | None:
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_reports_every_declared_metric(declared, trace, section):
    before = _git_status()
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])

    assert [line for line in lines if line.startswith("CHECK FAILED")] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(declared["workloads"])
    expected = {
        f"{w['name']}.{m['name']}": m["unit"]
        for w in declared["workloads"]
        for m in declared[section]
    }
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for w in declared["workloads"]:
        assert f"== {w['name']}" in lines
    assert _git_status() == before


def test_refuses_to_run_without_the_program(tmp_path, declared):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    for rel in declared["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *declared["command"][1:], "--workload", "lv-ec2"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
