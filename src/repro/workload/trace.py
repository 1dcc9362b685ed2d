"""Workload traces: number of concurrent users over time."""

from __future__ import annotations

import csv
import os
from bisect import bisect_right

import numpy as np

from repro.errors import TraceError

__all__ = ["Trace"]


class Trace:
    """A piecewise-linear user-population trace ``users(t)``.

    Times are seconds from experiment start; user counts are
    interpolated linearly between knots, matching the shape plots in
    the paper's Fig. 9. ``times`` and ``users`` are read-only copies of
    the knots.
    """

    def __init__(self, name: str, times, users) -> None:
        # Copies: freezing a caller's float array in place would make
        # it read-only for the caller too.
        t = np.array(times, dtype=float)
        u = np.array(users, dtype=float)
        if t.ndim != 1 or u.ndim != 1 or t.size != u.size or t.size < 2:
            raise TraceError(
                f"trace {name!r}: need equal-length 1-D times/users with >= 2 points"
            )
        if not np.all(np.isfinite(t)):
            raise TraceError(f"trace {name!r}: knot times must be finite")
        if not np.all(np.diff(t) > 0):
            raise TraceError(f"trace {name!r}: times must be strictly increasing")
        if not np.all(np.isfinite(u)):
            raise TraceError(f"trace {name!r}: user counts must be finite")
        if np.any(u < 0):
            raise TraceError(f"trace {name!r}: user counts must be non-negative")
        if t[0] != 0.0:
            raise TraceError(f"trace {name!r}: must start at t=0, got {t[0]!r}")
        t.flags.writeable = False
        u.flags.writeable = False
        self.name = name
        self.times = t
        self.users = u
        # List copies for users_at, which the generator calls on every
        # arrival: one point on lists is cheaper than an np.interp call.
        self._knot_t: list[float] = t.tolist()
        self._knot_u: list[float] = u.tolist()

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return self._knot_t[-1]

    @property
    def max_users(self) -> float:
        """Peak user population."""
        return float(self.users.max())

    def users_at(self, t: float) -> float:
        """Interpolated population at time ``t`` (clamped to the ends).

        Bit for bit ``float(np.interp(t, self.times, self.users))``,
        computed on the list copies with numpy's own arithmetic: the
        same segment search, ``slope * (t - x0) + y0``, and the same
        rules for NaN, the ends, exact knots and a NaN result (retried
        from the segment's other end).
        """
        if t != t:
            return float(t)
        xs = self._knot_t
        ys = self._knot_u
        j = bisect_right(xs, t) - 1
        if j < 0:
            return ys[0]
        if j >= len(xs) - 1:
            return ys[-1]
        x0 = xs[j]
        y0 = ys[j]
        if x0 == t:
            return y0
        x1 = xs[j + 1]
        y1 = ys[j + 1]
        slope = (y1 - y0) / (x1 - x0)
        y = slope * (t - x0) + y0
        if y != y:
            y = slope * (t - x1) + y1
            if y != y and y0 == y1:
                y = y0
        return float(y)  # a float even for a numpy scalar t

    def sample(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(grid_times, grid_users)`` sampled every ``dt``."""
        if dt <= 0:
            raise TraceError(f"sample dt must be > 0, got {dt!r}")
        grid = np.arange(0.0, self.duration + dt * 0.5, dt)
        return grid, np.interp(grid, self.times, self.users)

    # ------------------------------------------------------------------
    def scaled(self, user_factor: float = 1.0, time_factor: float = 1.0) -> "Trace":
        """Return a copy with populations and/or the timeline rescaled.

        ``user_factor`` implements the experiment load-scaling knob;
        ``time_factor`` compresses or stretches the timeline (used by
        fast test runs).
        """
        if user_factor <= 0 or time_factor <= 0:
            raise TraceError("scale factors must be positive")
        return Trace(
            self.name,
            self.times * time_factor,
            self.users * user_factor,
        )

    def truncated(self, duration: float) -> "Trace":
        """Return the first ``duration`` seconds of the trace."""
        if duration <= 0:
            raise TraceError(f"duration must be > 0, got {duration!r}")
        if duration >= self.duration:
            return self
        keep = self.times < duration
        t = np.append(self.times[keep], duration)
        u = np.append(self.users[keep], self.users_at(duration))
        return Trace(self.name, t, u)

    # ------------------------------------------------------------------
    # CSV round-trip (replay your own production traces)
    # ------------------------------------------------------------------
    @classmethod
    def from_csv(cls, path: str, name: str | None = None) -> "Trace":
        """Load a trace from a two-column CSV (``t_s,users``).

        A header row is detected and skipped; the first knot must be at
        t = 0 (prepend one if your trace starts later). This is how
        real production traces — the paper replays traces categorised
        by Gandhi et al. — are brought into the harness.
        """
        times: list[float] = []
        users: list[float] = []
        try:
            with open(path, newline="") as fh:
                for row in csv.reader(fh):
                    if not row or len(row) < 2:
                        continue
                    try:
                        t, u = float(row[0]), float(row[1])
                    except ValueError:
                        continue  # header or comment row
                    times.append(t)
                    users.append(u)
        except OSError as exc:
            raise TraceError(f"cannot read trace file {path!r}: {exc}") from exc
        if not times:
            raise TraceError(f"trace file {path!r} contains no data rows")
        trace_name = name or os.path.splitext(os.path.basename(path))[0]
        return cls(trace_name, times, users)

    def to_csv(self, path: str) -> str:
        """Write the trace knots as ``t_s,users`` CSV; returns the path."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "users"])
            writer.writerows(zip(self.times, self.users))
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Trace({self.name!r}, duration={self.duration:.0f}s, "
            f"max_users={self.max_users:.0f})"
        )
