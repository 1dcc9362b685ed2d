"""The program runs with scipy absent: numpy is its only runtime dependency.

scipy is a test dependency (the reference oracles use it), so this
suite always has it installed. The check therefore runs in a fresh
interpreter where ``sys.modules["scipy"] = None`` makes every import of
scipy, at module level or inside a function, raise ``ImportError``.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CHILD = r'''
import contextlib
import io
import sys

sys.modules["scipy"] = None

from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert "usage: repro" in out.getvalue()

from repro.experiments.artifact import RunSpec
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.sct import intervention

calls = []
cdf = intervention._student_t_cdf


def counted(df, t):
    calls.append(df)
    return cdf(df, t)


intervention._student_t_cdf = counted
spec = RunSpec("conscale", ScenarioConfig(
    name="cli", trace_name="dual_phase", load_scale=300.0, duration=60.0, seed=2,
))
artifact = execute_spec(spec)
assert calls, "the SCT estimator made no Welch test"
assert any(len(h) for h in artifact.estimates.values()), "no SCT estimate"
loaded = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
assert not loaded, loaded
print(f"welch calls: {len(calls)}")
'''


def test_cli_and_a_conscale_run_need_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("welch calls: ")
