"""The decision trace: the recorded output of the control-plane bus.

A :class:`DecisionTrace` subscribes to a
:class:`~repro.control.bus.ControlBus` (or is appended to directly) and
records every :class:`~repro.control.events.DecisionEvent` in time
order, with the fields that explain each decision (source, reason, the
justifying SCT estimate, and explicit no-op ticks).

The trace keeps one list per event field, live and loaded alike, and
builds :class:`DecisionEvent` objects only for the rows a query
returns; counts, keys, cap decisions and signatures read the lists.
Serialisation is columnar: pickling a trace stores plain numpy arrays
(one column per event field), so a trace rides the content-addressed
artifact cache deterministically and its columns can be hashed into an
artifact signature. Unpickling turns the columns back into lists.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterable, Iterator

import numpy as np

from repro.control.bus import ControlBus
from repro.control.events import FAULT_KINDS, NOOP, DecisionEvent

__all__ = ["DecisionTrace"]

# Column order of the serialised form; also the event-field order.
_COLUMNS = (
    "time", "kind", "tier", "value", "detail", "source", "reason", "estimate",
)
# The columns that may be None, stored as NaN.
_OPTIONAL_COLUMNS = ("value", "estimate")
# The decision-identity columns an artifact signature covers.
_SIGNATURE_COLUMNS = ("time", "kind", "tier", "value", "estimate")


class DecisionTrace:
    """Append-only, columnar-serialisable record of decision events."""

    def __init__(self, events: Iterable[DecisionEvent] | None = None) -> None:
        self._cols: dict[str, list[Any]] = {name: [] for name in _COLUMNS}
        for event in events or ():
            self.append(event)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def append(self, event: DecisionEvent) -> None:
        """Record one event (also the bus-subscription entry point)."""
        for name, column in self._cols.items():
            column.append(getattr(event, name))

    def attach(self, bus: ControlBus) -> "DecisionTrace":
        """Subscribe this trace to a bus; returns self for chaining."""
        bus.subscribe(self.append)
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cols["time"])

    def __iter__(self) -> Iterator[DecisionEvent]:
        return iter(self.all())

    def _events(self, keep: Iterable[bool] | None = None) -> list[DecisionEvent]:
        """The events of the rows ``keep`` selects (every row if None)."""
        rows: Iterable[tuple[Any, ...]] = zip(*self._cols.values())
        if keep is not None:
            rows = compress(rows, keep)
        return [DecisionEvent(*row) for row in rows]

    def all(self) -> list[DecisionEvent]:
        """Every recorded event in time order."""
        return self._events()

    def of_kind(self, *kinds: str) -> list[DecisionEvent]:
        """Events matching any of the given kinds."""
        wanted = set(kinds)
        return self._events(k in wanted for k in self._cols["kind"])

    def for_tier(self, tier: str) -> list[DecisionEvent]:
        """Events affecting one tier."""
        return self._events(t == tier for t in self._cols["tier"])

    def material(self) -> list[DecisionEvent]:
        """Events that changed (or tried to change) something: everything
        except the explicit no-op ticks."""
        return self._events(k != NOOP for k in self._cols["kind"])

    def noops(self) -> list[DecisionEvent]:
        """The explicit do-nothing ticks, each with its reason."""
        return self.of_kind(NOOP)

    def faults(self) -> list[DecisionEvent]:
        """Fault-injection lifecycle events: injector activations and
        recoveries plus the resilience reactions they provoked
        (dead-replica ejection, provisioning retries)."""
        return self.of_kind(*FAULT_KINDS)

    def scale_out_times(self, tier: str) -> list[float]:
        """Times at which new VMs became ready in a tier (figure markers)."""
        c = self._cols
        return [
            t for t, k, tr in zip(c["time"], c["kind"], c["tier"])
            if tr == tier and k == "scale_out_ready"
        ]

    def cap_decisions(self, tier: str, kind: str) -> list[tuple[float, int]]:
        """``(time, new_cap)`` pairs of one soft-resource kind in a tier."""
        c = self._cols
        return [
            (t, v)
            for t, k, tr, v in zip(c["time"], c["kind"], c["tier"], c["value"])
            if tr == tier and k == kind and v is not None
        ]

    def keys(self, include_noops: bool = True) -> list[tuple[Any, ...]]:
        """Order-preserving comparison keys: ``(time, kind, tier, value)``.

        Reasons and details are deliberately excluded — they carry
        formatted measurements that may differ without the *decision*
        differing. Two traces made the same decisions iff their key
        sequences are equal.
        """
        c = self._cols
        keys = zip(c["time"], c["kind"], c["tier"], c["value"])
        return [key for key in keys if include_noops or key[1] != NOOP]

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
    def _column(self, name: str) -> np.ndarray:
        values = self._cols[name]
        if name in _OPTIONAL_COLUMNS:
            return np.array(
                [np.nan if v is None else float(v) for v in values],
                dtype=np.float64,
            )
        if name == "time":
            return np.array(values, dtype=np.float64)
        return np.array(values, dtype=str)

    def to_columns(self) -> dict[str, np.ndarray]:
        """The trace as plain numpy columns (the serialised form)."""
        return {name: self._column(name) for name in _COLUMNS}

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray]) -> "DecisionTrace":
        """Rebuild a trace from :meth:`to_columns` output."""
        trace = cls()
        trace._cols = _lists(columns)
        return trace

    def signature_key(self) -> tuple[tuple[str, np.ndarray], ...]:
        """Digest-ready view of the decisions for artifact signatures.

        Covers the decision-identity columns (time, kind, tier, value,
        estimate); free-text columns are excluded so a reworded reason
        cannot shift a determinism signature.
        """
        return tuple((name, self._column(name)) for name in _SIGNATURE_COLUMNS)

    # ------------------------------------------------------------------
    # pickling: columnar
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        return {"columns": self.to_columns()}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._cols = _lists(state["columns"])


def _lists(columns: dict[str, np.ndarray]) -> dict[str, list[Any]]:
    """:meth:`DecisionTrace.to_columns` output back as field lists:
    Python scalars, NaN as None in the optional columns, ``value`` as
    int."""
    lists = {name: columns[name].tolist() for name in _COLUMNS}
    lists["value"] = [None if v != v else int(v) for v in lists["value"]]
    lists["estimate"] = [None if v != v else v for v in lists["estimate"]]
    return lists
