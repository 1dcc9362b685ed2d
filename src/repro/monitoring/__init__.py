"""Monitoring substrate.

* :mod:`~repro.monitoring.interval` — 50 ms fine-grained per-server
  monitoring (concurrency, throughput, response time), the data source
  of the SCT model.
* :mod:`~repro.monitoring.warehouse` — the ConScale Metric Warehouse:
  1 s per-VM and per-tier system metrics (CPU utilisation, ...).
* :mod:`~repro.monitoring.records` — end-to-end request logs and
  timeline binning for the evaluation figures.
* :mod:`~repro.monitoring.percentiles` — tail-latency helpers.
"""

from repro.monitoring.interval import IntervalMonitor, IntervalSample
from repro.monitoring.percentiles import tail_summary
from repro.monitoring.records import RequestLog, TimelineBin
from repro.monitoring.warehouse import MetricWarehouse, VmSample

__all__ = [
    "IntervalMonitor",
    "IntervalSample",
    "tail_summary",
    "RequestLog",
    "TimelineBin",
    "MetricWarehouse",
    "VmSample",
]
