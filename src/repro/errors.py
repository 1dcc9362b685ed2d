"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ScheduleError",
    "TwinDivergenceError",
    "LintError",
    "CapacityModelError",
    "PoolError",
    "TraceError",
    "MonitoringError",
    "EstimationError",
    "ScalingError",
    "FaultError",
    "CloudError",
    "ExperimentError",
    "CacheMissError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class ScheduleError(SimulationError):
    """An event was scheduled in the past, at a non-finite time, or on a
    finished simulator."""


class TwinDivergenceError(SimulationError):
    """A run diverged from its twin under one of the twin checks.

    Raised by :func:`repro.experiments.twincheck.run_twin_check`; the
    message names the check, the spec label and every diverging
    surface. Under ``race`` (canonical vs reversed same-timestamp tie
    order) any difference is a tie-order race: an observable that hangs
    on a scheduling accident. Under ``fluid`` (a hybrid run vs its
    all-discrete twin) it means broken request conservation or a
    throughput/percentile gap outside the calibrated tolerance band —
    the fluid integrator approximates by design, so that comparison is
    statistical, not exact."""


class LintError(ReproError):
    """The repro-lint static analysis pass could not complete (bad
    target path, unparseable source, unknown rule id in a suppression
    or CLI selection)."""


class CapacityModelError(ReproError):
    """A server capacity model received invalid parameters or inputs."""


class PoolError(ReproError):
    """A thread/connection pool operation was invalid (e.g. double release)."""


class TraceError(ReproError):
    """A workload trace is malformed (non-monotonic time, negative load)."""


class MonitoringError(ReproError):
    """Monitoring/aggregation received inconsistent request records."""


class EstimationError(ReproError):
    """The SCT estimator could not produce an estimate from the given data."""


class ScalingError(ReproError):
    """A scaling controller or actuator was driven into an invalid state."""


class FaultError(ReproError):
    """Fault injection hit an impossible target, or a component found
    itself acting on infrastructure that no longer exists (e.g. a drain
    poll for a server that crashed out from under it)."""


class CloudError(ReproError):
    """The simulated cloud substrate rejected an operation."""


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced no data."""


class CacheMissError(ExperimentError):
    """A required cached result is absent or schema-stale.

    Raised by cache-only paths (``repro diff``, ``--cached-only`` runs)
    instead of silently re-running a potentially expensive simulation.
    """
