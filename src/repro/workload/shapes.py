"""The six realistic bursty trace shapes of the paper's Fig. 9.

The paper uses real traces categorised by Gandhi et al. into the six
named shapes. We synthesise each shape deterministically (knots every
5 s over a 700 s window by default, peaking at ``max_users``), which
preserves the property the evaluation relies on: burst amplitude and
burst speed differ across the six categories.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable

import numpy as np

from repro.errors import TraceError
from repro.workload.trace import Trace

__all__ = [
    "TRACE_NAMES",
    "make_trace",
    "large_variations",
    "quickly_varying",
    "slowly_varying",
    "big_spike",
    "dual_phase",
    "steep_tri_phase",
    "steady_trace_csv",
]

_KNOT_DT = 5.0


def _build(
    name: str,
    shape: Callable[[np.ndarray], np.ndarray],
    max_users: float,
    duration: float,
) -> Trace:
    if max_users <= 0 or duration <= 0:
        raise TraceError("max_users and duration must be positive")
    t = np.arange(0.0, duration + _KNOT_DT * 0.5, _KNOT_DT)
    frac = np.clip(shape(t / duration), 0.02, 1.0)
    return Trace(name, t, frac * max_users)


def large_variations(max_users: float = 7500.0, duration: float = 700.0) -> Trace:
    """Repeated wide swings between light and near-peak load.

    Swing periods are a few hundred seconds (as in the Gandhi traces):
    steep enough to force scaling, gradual enough that a 15 s VM
    preparation period is not hopeless — the regime where the *quality*
    of the scaling decision (not raw provisioning lag) dominates.
    """

    def shape(x: np.ndarray) -> np.ndarray:
        return (
            0.52
            + 0.30 * np.sin(2 * np.pi * (x * 2.0 - 0.177))
            + 0.16 * np.sin(2 * np.pi * (x * 4.5 - 0.050))
        )

    return _build("large_variations", shape, max_users, duration)


def quickly_varying(max_users: float = 7500.0, duration: float = 700.0) -> Trace:
    """Fast medium-amplitude oscillation around a mid-level load."""

    def shape(x: np.ndarray) -> np.ndarray:
        return (
            0.43
            + 0.26 * np.sin(2 * np.pi * (x * 8.0 - 0.25))
            + 0.08 * np.sin(2 * np.pi * (x * 17.0 + 0.10))
        )

    return _build("quickly_varying", shape, max_users, duration)


def slowly_varying(max_users: float = 7500.0, duration: float = 700.0) -> Trace:
    """A single slow ramp to peak and back."""

    def shape(x: np.ndarray) -> np.ndarray:
        return 0.18 + 0.82 * np.sin(np.pi * x) ** 2

    return _build("slowly_varying", shape, max_users, duration)


def big_spike(max_users: float = 7500.0, duration: float = 700.0) -> Trace:
    """A moderate baseline with one sharp, tall burst (Slashdot effect)."""

    def shape(x: np.ndarray) -> np.ndarray:
        spike = np.exp(-(((x - 0.42) / 0.07) ** 2))
        return 0.22 + 0.78 * spike

    return _build("big_spike", shape, max_users, duration)


def dual_phase(max_users: float = 7500.0, duration: float = 700.0) -> Trace:
    """A low plateau followed by a sustained high plateau."""

    def shape(x: np.ndarray) -> np.ndarray:
        # Smooth logistic transition at 45 % of the run (~45 s wide).
        step = 1.0 / (1.0 + np.exp(-(x - 0.45) * 60.0))
        return 0.22 + 0.68 * step

    return _build("dual_phase", shape, max_users, duration)


def steep_tri_phase(max_users: float = 7500.0, duration: float = 700.0) -> Trace:
    """Three load levels with steep transitions between them."""

    def shape(x: np.ndarray) -> np.ndarray:
        step1 = 1.0 / (1.0 + np.exp(-(x - 0.33) * 90.0))
        step2 = 1.0 / (1.0 + np.exp(-(x - 0.66) * 90.0))
        return 0.20 + 0.39 * step1 + 0.39 * step2

    return _build("steep_tri_phase", shape, max_users, duration)


_FACTORIES: dict[str, Callable[[float, float], Trace]] = {
    "large_variations": large_variations,
    "quickly_varying": quickly_varying,
    "slowly_varying": slowly_varying,
    "big_spike": big_spike,
    "dual_phase": dual_phase,
    "steep_tri_phase": steep_tri_phase,
}

TRACE_NAMES: tuple[str, ...] = tuple(_FACTORIES)


def make_trace(
    name: str, max_users: float = 7500.0, duration: float = 700.0
) -> Trace:
    """Build one of the six named traces by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise TraceError(
            f"unknown trace {name!r}; expected one of {sorted(_FACTORIES)}"
        ) from None
    return factory(max_users, duration)


def steady_trace_csv(
    directory: str | None = None,
    *,
    users: float = 4000.0,
    duration: float = 300.0,
) -> str:
    """Write (once) and return a constant-load trace CSV path.

    The six shapes all tell a bursty story, which is exactly what the
    hybrid-mode governor holds *discrete* — the fluid integrator needs a
    quiet phase to earn its keep. A flat trace gives the fluid twin
    check and the fluid perf bench a run that is mostly fluid. The path
    (and so every spec digest naming it) depends only on ``directory``,
    ``users`` and ``duration``.
    """
    directory = directory or tempfile.gettempdir()
    path = os.path.join(
        directory, f"repro_steady_{int(users)}_{int(duration)}.csv"
    )
    if not os.path.exists(path):
        knots = np.arange(0.0, duration + 1.0, 5.0)
        Trace("steady", knots, np.full(knots.size, users)).to_csv(path)
    return path
