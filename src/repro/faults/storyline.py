"""Correlated fault storylines: named, composable incident templates.

A :class:`Storyline` composes the five primitive fault classes of
:mod:`repro.faults.plan` into one *named incident* — an AZ outage is
simultaneously a crash, a provisioning failure, and a telemetry
dropout, not three unrelated runs. Storylines are frozen and
digest-addressed like every other experiment input, and they *lower*
to an ordinary :class:`~repro.faults.plan.FaultPlan` (tagged with the
storyline name) so the whole downstream machinery — run cache, ``repro
diff``, the race detector, resilience scoring — works unchanged.

A storyline template is time-scale free: atoms place themselves with
fractional offsets/lengths relative to an incident window, and
:meth:`Storyline.instantiate` pins the window to concrete ``(tier, t0,
duration)`` coordinates. Templates may also *repeat* (a flapping node
is the same micro-incident recurring), with optional start jitter drawn
from the :class:`~repro.rng.RngRegistry` so repetition is irregular yet
byte-reproducible.

The CLI grammar (``repro run --storyline ...``)::

    NAME[:TIER[:T0[:DURATION]]]

with the same window defaults as the resilience suite (incident opens
at 40% of the run, lasts ``min(60, 0.2 * run duration)`` seconds).

Built-in storylines:

* ``az-outage`` — epicenter replica dies while provisioning fails
  everywhere and telemetry goes dark (the dropout outlasting the
  provisioning window, as monitoring is the last thing repaired).
* ``brownout`` — deep capacity loss on the epicenter bleeding into a
  milder app-tier slowdown plus client timeouts: correlated partial
  degradation rather than a clean failure.
* ``flapping-node`` — a short, severe slow-node episode recurring
  three times with jittered spacing; punishes controllers that
  overreact to transients.
* ``cascading-retry-storm`` — a crash under a client-timeout retry
  regime while provisioning runs at a fraction of its normal speed:
  the retry amplification scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import (
    ALL_TIERS,
    _TIERS,
    ClientTimeoutSpec,
    FaultPlan,
    FaultSpec,
    ProvisioningFaultSpec,
    ServerCrashSpec,
    SlowNodeSpec,
    TelemetryDropoutSpec,
)
from repro.rng import RngRegistry

__all__ = [
    "StoryAtom",
    "Storyline",
    "register_storyline",
    "get_storyline",
    "storyline_names",
    "parse_storyline",
]

_ATOM_KINDS = ("slow", "crash", "prov", "dropout", "timeout")

#: Sentinel tier meaning "use the incident's epicenter tier".
EPICENTER = None


@dataclass(frozen=True, slots=True)
class StoryAtom:
    """One primitive fault positioned fractionally inside an incident.

    ``offset_frac``/``length_frac`` are fractions of the incident
    duration; ``tier=None`` binds to the incident epicenter at
    instantiation time, ``"*"`` keeps the all-tiers wildcard. The
    remaining fields are the per-class knobs of the underlying specs
    (ignored by classes that lack them).
    """

    kind: str
    offset_frac: float = 0.0
    length_frac: float = 1.0
    tier: str | None = EPICENTER
    slowdown: float = 4.0
    mode: str = "fail"
    delay_factor: float = 4.0
    deadline: float = 2.0
    max_retries: int = 2
    server_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _ATOM_KINDS:
            raise ConfigurationError(
                f"story atom kind must be one of {_ATOM_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.offset_frac < 0:
            raise ConfigurationError(
                f"offset_frac must be >= 0, got {self.offset_frac!r}"
            )
        if self.length_frac <= 0:
            raise ConfigurationError(
                f"length_frac must be > 0, got {self.length_frac!r}"
            )
        if self.tier is not None and self.tier != ALL_TIERS:
            if self.tier not in _TIERS:
                raise ConfigurationError(
                    f"story atom tier must be one of {_TIERS}, "
                    f"'{ALL_TIERS}', or None (epicenter), got {self.tier!r}"
                )

    def lower(self, *, tier: str, t0: float, duration: float) -> FaultSpec:
        """Pin this atom to concrete window coordinates."""
        bound = self.tier if self.tier is not None else tier
        at = round(t0 + self.offset_frac * duration, 3)
        length = round(self.length_frac * duration, 3)
        if self.kind == "slow":
            return SlowNodeSpec(
                tier=bound,
                at=at,
                duration=length,
                slowdown=self.slowdown,
                server_index=self.server_index,
            )
        if self.kind == "crash":
            return ServerCrashSpec(
                tier=bound, at=at, server_index=self.server_index
            )
        if self.kind == "prov":
            return ProvisioningFaultSpec(
                tier=bound,
                at=at,
                duration=length,
                mode=self.mode,
                delay_factor=self.delay_factor,
            )
        if self.kind == "dropout":
            return TelemetryDropoutSpec(at=at, duration=length, tier=bound)
        return ClientTimeoutSpec(
            at=at,
            duration=length,
            deadline=self.deadline,
            max_retries=self.max_retries,
        )


@dataclass(frozen=True, slots=True)
class Storyline:
    """A named, frozen incident template over correlated fault atoms.

    ``repeat`` replays the whole atom set ``repeat`` times, each
    repetition starting ``period_frac * duration`` after the previous
    one; ``jitter_frac`` adds a uniform ±fraction-of-duration shift to
    each repetition *as a unit* (atoms inside one repetition stay
    time-aligned — that is the correlation the storyline models).
    """

    name: str
    summary: str
    atoms: tuple[StoryAtom, ...]
    repeat: int = 1
    period_frac: float = 1.5
    jitter_frac: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or ":" in self.name or "," in self.name:
            raise ConfigurationError(
                f"storyline name must be non-empty and contain no "
                f"':' or ',', got {self.name!r}"
            )
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ConfigurationError(f"storyline {self.name!r} has no atoms")
        for atom in self.atoms:
            if not isinstance(atom, StoryAtom):
                raise ConfigurationError(
                    f"storyline atoms must be StoryAtom, got "
                    f"{type(atom).__qualname__}"
                )
        if self.repeat < 1:
            raise ConfigurationError(
                f"repeat must be >= 1, got {self.repeat!r}"
            )
        if self.repeat > 1 and self.period_frac <= 0:
            raise ConfigurationError(
                f"period_frac must be > 0 when repeat > 1, "
                f"got {self.period_frac!r}"
            )
        if self.jitter_frac < 0:
            raise ConfigurationError(
                f"jitter_frac must be >= 0, got {self.jitter_frac!r}"
            )

    def instantiate(
        self,
        *,
        tier: str = "db",
        t0: float = 0.0,
        duration: float = 60.0,
        rng: np.random.Generator | None = None,
    ) -> FaultPlan:
        """Lower the template to a concrete :class:`FaultPlan`.

        ``tier`` is the incident epicenter (atoms with ``tier=None``
        bind to it), ``t0`` the incident start, ``duration`` the base
        incident window every fractional coordinate scales against.
        ``rng`` supplies repetition jitter; when None (or when
        ``jitter_frac`` is zero) repetitions are perfectly periodic.
        """
        if tier not in _TIERS:
            raise ConfigurationError(
                f"storyline epicenter tier must be one of {_TIERS}, "
                f"got {tier!r}"
            )
        if t0 < 0:
            raise ConfigurationError(f"storyline t0 must be >= 0, got {t0!r}")
        if duration <= 0:
            raise ConfigurationError(
                f"storyline duration must be > 0, got {duration!r}"
            )
        specs: list[FaultSpec] = []
        for rep in range(self.repeat):
            base = t0 + rep * self.period_frac * duration
            if rep > 0 and self.jitter_frac > 0 and rng is not None:
                shift = float(
                    rng.uniform(-self.jitter_frac, self.jitter_frac)
                )
                base = max(t0, base + shift * duration)
            for atom in self.atoms:
                specs.append(
                    atom.lower(tier=tier, t0=round(base, 3), duration=duration)
                )
        specs.sort(key=lambda s: (s.window[0], s.label))
        return FaultPlan(specs=tuple(specs), storyline=self.name)


_REGISTRY: dict[str, Storyline] = {}


def register_storyline(story: Storyline) -> Storyline:
    """Add a storyline to the global registry (name must be unused)."""
    if story.name in _REGISTRY:
        raise ConfigurationError(
            f"storyline {story.name!r} is already registered"
        )
    _REGISTRY[story.name] = story
    return story


def get_storyline(name: str) -> Storyline:
    """Look up a registered storyline; unknown names list what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(storyline_names())
        raise ConfigurationError(
            f"unknown storyline {name!r} (known: {known})"
        ) from None


def storyline_names() -> tuple[str, ...]:
    """Registered storyline names, sorted."""
    return tuple(sorted(_REGISTRY))


def parse_storyline(
    text: str, *, run_duration: float, seed: int = 0
) -> FaultPlan:
    """Parse the ``NAME[:TIER[:T0[:DURATION]]]`` CLI form.

    Window defaults mirror the resilience suite: the incident opens at
    40% of the run and lasts ``min(60, 0.2 * run_duration)`` seconds.
    Jitter (for storylines that use it) draws from the run seed's
    ``storyline:NAME`` stream, so the lowered plan — and therefore the
    run digest — depends only on ``(text, run_duration, seed)``.
    """
    parts = [p.strip() for p in text.split(":")]
    if not parts or not parts[0]:
        raise ConfigurationError(f"empty storyline spec {text!r}")
    if len(parts) > 4:
        raise ConfigurationError(
            f"storyline spec takes NAME[:TIER[:T0[:DUR]]], got {text!r}"
        )
    story = get_storyline(parts[0])
    tier = parts[1] if len(parts) > 1 and parts[1] else "db"
    try:
        t0 = float(parts[2]) if len(parts) > 2 else round(0.4 * run_duration)
        dur = (
            float(parts[3])
            if len(parts) > 3
            else min(60.0, 0.2 * run_duration)
        )
    except ValueError as exc:
        raise ConfigurationError(
            f"bad number in storyline spec {text!r}: {exc}"
        ) from None
    rng = None
    if story.jitter_frac > 0:
        rng = RngRegistry(seed).stream(f"storyline:{story.name}")
    return story.instantiate(tier=tier, t0=t0, duration=dur, rng=rng)


# --- built-in storylines -------------------------------------------------

register_storyline(
    Storyline(
        name="az-outage",
        summary=(
            "epicenter replica dies; provisioning fails everywhere for "
            "half the window; telemetry dark for most of it"
        ),
        # The crash lands a beat *after* the prov/dropout windows open:
        # same-instant activation would make the replacement launch's
        # fate depend on intra-instant scheduling order, which the
        # tie-order race detector rightly rejects.
        atoms=(
            StoryAtom(kind="crash", offset_frac=0.05),
            StoryAtom(kind="prov", tier=ALL_TIERS, length_frac=0.5,
                      mode="fail"),
            StoryAtom(kind="dropout", tier=ALL_TIERS, length_frac=0.8),
        ),
    )
)

register_storyline(
    Storyline(
        name="brownout",
        summary=(
            "deep epicenter slowdown bleeding into a milder app-tier "
            "slowdown plus client timeouts"
        ),
        atoms=(
            StoryAtom(kind="slow", length_frac=0.8, slowdown=3.0),
            StoryAtom(kind="slow", tier="app", offset_frac=0.15,
                      length_frac=0.5, slowdown=2.0),
            StoryAtom(kind="timeout", offset_frac=0.2, length_frac=0.4,
                      deadline=2.0, max_retries=2),
        ),
    )
)

register_storyline(
    Storyline(
        name="flapping-node",
        summary=(
            "a short, severe slow-node episode recurring three times "
            "with jittered spacing"
        ),
        atoms=(
            StoryAtom(kind="slow", length_frac=0.15, slowdown=6.0),
        ),
        repeat=3,
        period_frac=0.35,
        jitter_frac=0.02,
    )
)

register_storyline(
    Storyline(
        name="cascading-retry-storm",
        summary=(
            "crash under a client-timeout retry regime while "
            "provisioning runs at a quarter of its normal speed"
        ),
        atoms=(
            StoryAtom(kind="crash", offset_frac=0.05),
            StoryAtom(kind="timeout", length_frac=0.5, deadline=1.5,
                      max_retries=3),
            StoryAtom(kind="prov", tier=ALL_TIERS, length_frac=0.6,
                      mode="delay", delay_factor=4.0),
        ),
    )
)
