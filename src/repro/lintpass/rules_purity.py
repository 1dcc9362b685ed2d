"""Purity rules: randomness and wall clocks.

These two rules share a shape — resolve every call's dotted path via
the file's import aliases and match it against a denylist — so they
live together.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintpass.base import Rule, Violation, register
from repro.lintpass.project import ProjectIndex, SourceFile, dotted_name

__all__ = ["RngDirectRule", "WallClockRule"]


def _calls(file: SourceFile) -> Iterator[tuple[ast.Call, str]]:
    """Every call in a file with its resolved dotted path."""
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Call):
            resolved = dotted_name(node.func, file.aliases)
            if resolved is not None:
                yield node, resolved


@register
class RngDirectRule(Rule):
    """All randomness must flow through :class:`repro.rng.RngRegistry`.

    A direct ``random.*`` or ``numpy.random.*`` call mints an RNG whose
    seed is not derived from the experiment's root seed, so the draw is
    invisible to the content digest: two runs of the "same" spec
    diverge, and the cache serves whichever ran first. Only
    ``repro/rng.py`` — the registry itself — may touch the underlying
    generators.
    """

    id = "rng-direct"
    summary = "direct random/numpy.random use outside repro.rng"

    ALLOWED_MODULES = ("repro.rng",)

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for file in index.files:
            if file.module in self.ALLOWED_MODULES:
                continue
            for node, resolved in _calls(file):
                if resolved == "random" or resolved.startswith(("random.",
                                                                "numpy.random.")):
                    yield self.violation(
                        file.path, node.lineno, node.col_offset,
                        f"direct RNG use {resolved!r}; draw from an "
                        "RngRegistry stream instead (repro.rng)",
                    )


@register
class WallClockRule(Rule):
    """Simulation packages must never read the host clock.

    Inside the simulated world the only clock is ``sim.now``; a
    ``time.time()`` (or friends) smuggles host-machine state into model
    behaviour, which is exactly the environment nondeterminism the
    digest cannot see. Wall clocks are fine in the CLI, the experiment
    engine, and benchmarks — those measure the *host*, not the model.
    """

    id = "wall-clock"
    summary = "wall-clock read inside a simulation package"

    RESTRICTED = ("repro.sim", "repro.ntier", "repro.sct", "repro.scaling",
                  "repro.faults")
    CLOCK_CALLS = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for file in index.files:
            if not file.in_package(*self.RESTRICTED):
                continue
            for node, resolved in _calls(file):
                if resolved in self.CLOCK_CALLS:
                    yield self.violation(
                        file.path, node.lineno, node.col_offset,
                        f"wall-clock read {resolved!r} in simulation package "
                        f"{file.module!r}; the only clock here is sim.now",
                    )

