"""Workload substrate: RUBBoS interactions, mixes, traces, generators.

* :mod:`~repro.workload.rubbos` — the 24-servlet interaction catalog of
  the RUBBoS bulletin-board benchmark.
* :mod:`~repro.workload.mixes` — browse-only (CPU-intensive) and
  read/write (I/O-intensive) workload mixes.
* :mod:`~repro.workload.trace` / :mod:`~repro.workload.shapes` — bursty
  user traces, including the six realistic shapes of Fig. 9.
* :mod:`~repro.workload.generator` — open-loop (Poisson, time-varying
  rate) and closed-loop (fixed users, think time) request generators.
"""

from repro.workload.generator import ClosedLoopGenerator, OpenLoopGenerator, RequestFactory
from repro.workload.mixes import WorkloadMix, browse_only_mix, read_write_mix
from repro.workload.rubbos import CATALOG, Interaction
from repro.workload.shapes import (
    TRACE_NAMES,
    big_spike,
    dual_phase,
    large_variations,
    make_trace,
    quickly_varying,
    slowly_varying,
    steep_tri_phase,
)
from repro.workload.trace import Trace

__all__ = [
    "ClosedLoopGenerator",
    "OpenLoopGenerator",
    "RequestFactory",
    "WorkloadMix",
    "browse_only_mix",
    "read_write_mix",
    "CATALOG",
    "Interaction",
    "Trace",
    "TRACE_NAMES",
    "make_trace",
    "large_variations",
    "quickly_varying",
    "slowly_varying",
    "big_spike",
    "dual_phase",
    "steep_tri_phase",
]
