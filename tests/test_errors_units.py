"""Tests for the error hierarchy."""

import pytest

from repro import errors


@pytest.mark.parametrize(
    "cls",
    [
        errors.ConfigurationError,
        errors.SimulationError,
        errors.ScheduleError,
        errors.CapacityModelError,
        errors.PoolError,
        errors.TraceError,
        errors.MonitoringError,
        errors.EstimationError,
        errors.ScalingError,
        errors.CloudError,
        errors.ExperimentError,
    ],
)
def test_all_errors_derive_from_repro_error(cls):
    assert issubclass(cls, errors.ReproError)
    with pytest.raises(errors.ReproError):
        raise cls("boom")


def test_schedule_error_is_simulation_error():
    assert issubclass(errors.ScheduleError, errors.SimulationError)
