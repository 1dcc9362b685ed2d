"""The decision trace: the recorded output of the control-plane bus.

A :class:`DecisionTrace` subscribes to a
:class:`~repro.control.bus.ControlBus` (or is appended to directly) and
keeps every :class:`~repro.control.events.DecisionEvent` in time order,
with the fields that explain each decision (source, reason, the
justifying SCT estimate, and explicit no-op ticks).

Serialisation is columnar: pickling a trace stores plain numpy arrays
(one column per event field) rather than a list of objects, so a trace
rides the content-addressed artifact cache deterministically and its
columns can be hashed into an artifact signature. Unpickling rebuilds
the event objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.control.bus import ControlBus
from repro.control.events import NOOP, DecisionEvent

__all__ = ["DecisionTrace"]

# Column order of the serialised form; also the event-field order.
_COLUMNS = (
    "time", "kind", "tier", "value", "detail", "source", "reason", "estimate",
)
_STR_COLUMNS = ("kind", "tier", "detail", "source", "reason")


class DecisionTrace:
    """Append-only, columnar-serialisable record of decision events."""

    def __init__(self, events: Iterable[DecisionEvent] | None = None) -> None:
        self._events: list[DecisionEvent] = list(events or ())

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def append(self, event: DecisionEvent) -> None:
        """Record one event (also the bus-subscription entry point)."""
        self._events.append(event)

    def attach(self, bus: ControlBus) -> "DecisionTrace":
        """Subscribe this trace to a bus; returns self for chaining."""
        bus.subscribe(DecisionEvent, self.append)
        return self

    def record(
        self,
        time: float,
        kind: str,
        tier: str,
        value: int | None = None,
        detail: str = "",
        source: str = "",
        reason: str = "",
        estimate: float | None = None,
    ) -> None:
        """Append one event from fields."""
        self._events.append(
            DecisionEvent(time, kind, tier, value, detail, source, reason, estimate)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[DecisionEvent]:
        return iter(self._events)

    def all(self) -> list[DecisionEvent]:
        """Every recorded event in time order."""
        return list(self._events)

    def of_kind(self, *kinds: str) -> list[DecisionEvent]:
        """Events matching any of the given kinds."""
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def for_tier(self, tier: str) -> list[DecisionEvent]:
        """Events affecting one tier."""
        return [e for e in self._events if e.tier == tier]

    def material(self) -> list[DecisionEvent]:
        """Events that changed (or tried to change) something: everything
        except the explicit no-op ticks."""
        return [e for e in self._events if e.kind != NOOP]

    def noops(self) -> list[DecisionEvent]:
        """The explicit do-nothing ticks, each with its reason."""
        return [e for e in self._events if e.kind == NOOP]

    def faults(self) -> list[DecisionEvent]:
        """Fault-injection lifecycle events: injector activations and
        recoveries plus the resilience reactions they provoked
        (dead-replica ejection, provisioning retries)."""
        return [e for e in self._events if e.is_fault]

    def scale_out_times(self, tier: str) -> list[float]:
        """Times at which new VMs became ready in a tier (figure markers)."""
        return [
            e.time for e in self._events
            if e.tier == tier and e.kind == "scale_out_ready"
        ]

    def cap_decisions(self, tier: str, kind: str) -> list[tuple[float, int]]:
        """``(time, new_cap)`` pairs of one soft-resource kind in a tier."""
        return [
            (e.time, e.value)
            for e in self._events
            if e.tier == tier and e.kind == kind and e.value is not None
        ]

    def keys(self, include_noops: bool = True) -> list[tuple]:
        """Order-preserving comparison keys: ``(time, kind, tier, value)``.

        Reasons and details are deliberately excluded — they carry
        formatted measurements that may differ without the *decision*
        differing. Two traces made the same decisions iff their key
        sequences are equal.
        """
        return [
            (e.time, e.kind, e.tier, e.value)
            for e in self._events
            if include_noops or e.kind != NOOP
        ]

    @staticmethod
    def render(events: Iterable[DecisionEvent]) -> str:
        """Human-readable multi-line rendering (for reports)."""
        lines = []
        for e in events:
            value = f" -> {e.value}" if e.value is not None else ""
            extra = e.reason or e.detail
            detail = f" ({extra})" if extra else ""
            lines.append(f"[{e.time:8.2f}s] {e.kind:<22} {e.tier:<4}{value}{detail}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # columnar serialisation
    # ------------------------------------------------------------------
    def to_columns(self) -> dict[str, np.ndarray]:
        """The trace as plain numpy columns (the serialised form)."""
        events = self._events
        return {
            "time": np.array([e.time for e in events], dtype=np.float64),
            "kind": np.array([e.kind for e in events], dtype=str),
            "tier": np.array([e.tier for e in events], dtype=str),
            "value": np.array(
                [np.nan if e.value is None else float(e.value) for e in events],
                dtype=np.float64,
            ),
            "detail": np.array([e.detail for e in events], dtype=str),
            "source": np.array([e.source for e in events], dtype=str),
            "reason": np.array([e.reason for e in events], dtype=str),
            "estimate": np.array(
                [np.nan if e.estimate is None else float(e.estimate)
                 for e in events],
                dtype=np.float64,
            ),
        }

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray]) -> "DecisionTrace":
        """Rebuild a trace from :meth:`to_columns` output."""
        times = columns["time"]
        events = [
            DecisionEvent(
                time=float(times[i]),
                kind=str(columns["kind"][i]),
                tier=str(columns["tier"][i]),
                value=(
                    None if np.isnan(columns["value"][i])
                    else int(columns["value"][i])
                ),
                detail=str(columns["detail"][i]),
                source=str(columns["source"][i]),
                reason=str(columns["reason"][i]),
                estimate=(
                    None if np.isnan(columns["estimate"][i])
                    else float(columns["estimate"][i])
                ),
            )
            for i in range(len(times))
        ]
        return cls(events)

    def signature_key(self) -> tuple:
        """Digest-ready view of the decisions for artifact signatures.

        Covers the decision-identity columns (time, kind, tier, value,
        estimate); free-text columns are excluded so a reworded reason
        cannot shift a determinism signature.
        """
        cols = self.to_columns()
        return tuple(
            (name, cols[name]) for name in ("time", "kind", "tier", "value",
                                            "estimate")
        )

    # ------------------------------------------------------------------
    # pickling: columnar
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"columns": self.to_columns()}

    def __setstate__(self, state: dict) -> None:
        self._events = DecisionTrace.from_columns(state["columns"])._events
