"""Persist experiment outcomes.

Two serialisation levels:

* **JSON summaries** (:func:`save_result`) — a compact,
  language-neutral digest of one run: scenario key fields, tail
  latencies, the binned timeline, VM counts, scaling actions and the
  SCT estimate history. Write-only: for archiving and external
  plotting.
* **Full artifacts** (:func:`save_artifact` / :func:`load_artifact`) —
  the complete :class:`~repro.experiments.artifact.RunArtifact` as a
  pickle, lossless down to the fine-grained interval series. The
  loaded artifact is interchangeable with the in-memory one (same
  ``signature()``), so figure code can consume it directly.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from typing import Any

from repro.errors import ExperimentError
from repro.experiments.artifact import (
    SCHEMA_VERSION,
    RunArtifact,
)

__all__ = [
    "result_summary",
    "save_result",
    "save_artifact",
    "load_artifact",
    "trace_jsonl",
]


def _clean(value: float) -> float | None:
    """JSON has no NaN; map it to null."""
    return None if isinstance(value, float) and math.isnan(value) else value


def result_summary(result: RunArtifact, bin_width: float | None = None) -> dict:
    """Build the JSON-serialisable summary of one run."""
    tail = result.tail()
    config = result.config
    summary: dict[str, Any] = {
        "framework": result.framework,
        "scenario": {
            "name": config.name,
            "trace": config.trace_name,
            "seed": config.seed,
            "duration_s": config.duration,
            "load_scale": config.load_scale,
            "max_users": config.max_users,
            "workload_mode": config.workload_mode,
            "topology": list(config.topology),
            "soft": [
                config.soft.web_threads,
                config.soft.app_threads,
                config.soft.db_connections,
            ],
        },
        "requests": {"generated": result.generated, "completed": result.completed},
        "vm_seconds": result.vm_seconds(),
        "tail_ms": {
            "mean": tail.mean * 1000,
            "p50": tail.p50 * 1000,
            "p95": tail.p95 * 1000,
            "p99": tail.p99 * 1000,
            "max": tail.max * 1000,
        },
        "timeline": [
            {
                "t": b.t_start,
                "throughput_rps": _clean(b.throughput),
                "mean_rt_ms": _clean(b.mean_rt * 1000),
                "p95_rt_ms": _clean(b.p95_rt * 1000),
            }
            for b in result.timeline(bin_width)
        ],
        "vms": {
            "t": [float(t) for t in result.vm_times],
            "count": [int(c) for c in result.vm_counts],
        },
        # Material decisions only: the explicit no-op ticks (one per
        # controller tick per tier) would dwarf the summary, so they are
        # reduced to a count. Load the pickled artifact for the full trace.
        "actions": [
            {
                "t": a.time,
                "kind": a.kind,
                "tier": a.tier,
                "value": a.value,
                "detail": a.detail,
                "source": a.source,
                "reason": a.reason,
                "estimate": _clean(a.estimate),
            }
            for a in result.actions.material()
        ],
        "noop_ticks": len(result.actions.noops()),
        "estimates": {
            tier: [
                {
                    "t": e.time,
                    "optimal": e.optimal,
                    "q_upper": e.q_upper,
                    "actionable": e.actionable,
                }
                for e in history
            ]
            for tier, history in result.estimates.items()
        },
    }
    return summary


def save_result(
    result: RunArtifact, path: str, bin_width: float | None = None
) -> str:
    """Write the summary JSON; returns the path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result_summary(result, bin_width), fh, indent=1)
    return path


def save_artifact(artifact: RunArtifact, path: str) -> str:
    """Pickle one full run artifact; returns the path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        pickle.dump(artifact, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def trace_jsonl(artifact: RunArtifact) -> list[str]:
    """The run's decision trace as line-delimited JSON records.

    The first line is a meta header (format tag, artifact schema, spec
    digest, framework, fault plan / storyline, event count); every
    following line is one :class:`~repro.control.events.DecisionEvent`
    with its full field set. This is the export format behind ``repro
    trace export --jsonl`` — a training-data-friendly dump whose header
    pins exactly which spec produced the episode.
    """
    spec = artifact.spec
    plan = spec.faults
    lines = [
        json.dumps(
            {
                "format": "repro-trace",
                "version": 1,
                "schema": SCHEMA_VERSION,
                "spec_digest": spec.digest(),
                "framework": artifact.framework,
                "faults": plan.describe() if plan is not None else None,
                "storyline": plan.storyline if plan is not None else None,
                "events": len(artifact.actions),
            },
            sort_keys=True,
        )
    ]
    for event in artifact.actions:
        lines.append(
            json.dumps(
                {
                    "t": event.time,
                    "kind": event.kind,
                    "tier": event.tier,
                    "value": event.value,
                    "detail": event.detail,
                    "source": event.source,
                    "reason": event.reason,
                    "estimate": (
                        None if event.estimate is None else _clean(event.estimate)
                    ),
                },
                sort_keys=True,
            )
        )
    return lines


def load_artifact(path: str) -> RunArtifact:
    """Load an artifact written by :func:`save_artifact`."""
    try:
        with open(path, "rb") as fh:
            artifact = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise ExperimentError(f"cannot load artifact {path!r}: {exc}") from exc
    if not isinstance(artifact, RunArtifact):
        raise ExperimentError(
            f"{path!r} does not contain a RunArtifact "
            f"(got {type(artifact).__name__})"
        )
    if artifact.schema != SCHEMA_VERSION:
        raise ExperimentError(
            f"{path!r} has artifact schema {artifact.schema}, "
            f"this build reads only schema {SCHEMA_VERSION}"
        )
    return artifact
