"""A ceiling on Python calls per request in the discrete model.

Wall time is too noisy to gate in a unit test, but the number of Python
calls a run makes is exact: cProfile counts the same calls on every
host. This profiles ``execute_spec`` on the `repro run ec2` spec at a
short duration and fails if the run makes more than
:data:`CALLS_PER_REQUEST` calls per completed request, so a hot-path
accessor or helper that creeps back shows up here.
"""

import cProfile
import pstats

from repro.experiments.artifact import RunSpec
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig

#: 180.2 when this ceiling was set, down from 184.1 when the request
#: flow read each of its four demands through a ``Request`` method;
#: from 203.2 when an admission and its first phase, and a last phase
#: and its release, were two calendar stamps each; from 272.5 when a
#: two-level wheel calendar ran Python-level push, move, advance and
#: slot-load frames per event; and from 366.5 when the clock was a
#: property, the contention penalty a call per transition and each
#: completion phase a fresh event. With no calendar benchmark left,
#: this exact count is what keeps the per-event calendar work low.
CALLS_PER_REQUEST = 190


def test_calls_per_completed_request_stay_under_the_ceiling():
    spec = RunSpec(
        "ec2", ScenarioConfig(name="cli", load_scale=50.0, duration=120.0, seed=3)
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        artifact = execute_spec(spec)
    finally:
        profiler.disable()
    calls = pstats.Stats(profiler).total_calls
    assert artifact.completed > 4000
    per_request = calls / artifact.completed
    assert per_request <= CALLS_PER_REQUEST, (
        f"{per_request:.1f} calls per completed request "
        f"({calls} calls, {artifact.completed} requests)"
    )
