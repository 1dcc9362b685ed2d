"""Tail-latency helpers shared by the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MonitoringError

__all__ = ["tail_summary", "TailSummary"]


@dataclass(frozen=True, slots=True)
class TailSummary:
    """The latency summary reported in Table I (plus context columns)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float


def tail_summary(values) -> TailSummary:
    """Compute the Table-I style summary of a latency sample."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise MonitoringError("tail_summary of an empty sample")
    return TailSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        max=float(arr.max()),
    )
