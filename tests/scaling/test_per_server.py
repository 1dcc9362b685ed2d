"""Tests for the actuator's per-server app-thread cap."""

import pytest

from repro.errors import ScalingError
from repro.ntier.app import APP

from tests.scaling.test_actuator import bootstrap_all, make_stack, recorded


def test_set_app_threads_for_targets_one_server():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator, (1, 2, 1))
    actuator.set_app_threads_for("app-2", 25)
    servers = {s.name: s.threads.limit for s in app.tiers[APP].servers}
    assert servers == {"app-1": 60, "app-2": 25}
    # template default untouched
    assert actuator.factory.thread_limit(APP) == 60


def test_set_app_threads_for_unknown_server():
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    with pytest.raises(ScalingError):
        actuator.set_app_threads_for("app-9", 25)
    with pytest.raises(ScalingError):
        actuator.set_app_threads_for("app-1", 0)


def test_set_app_threads_for_noop_not_logged():
    sim, app, actuator = make_stack()
    trace = recorded(actuator)
    bootstrap_all(sim, actuator)
    n = len(trace)
    actuator.set_app_threads_for("app-1", 60)  # already 60
    assert len(trace) == n
