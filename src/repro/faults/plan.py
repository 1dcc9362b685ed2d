"""Declarative fault plans: frozen, content-digestable fault specs.

A :class:`FaultPlan` is a tuple of typed fault specs riding a
:class:`~repro.experiments.artifact.RunSpec`, so faulted runs are
cache-addressed, diffable with ``repro diff`` (fault vs fault-free twin
share the same :class:`~repro.experiments.scenarios.ScenarioConfig`),
and byte-reproducible. Five fault classes span the stack:

* :class:`SlowNodeSpec` — a replica's capacity silently drops
  (noisy neighbour, failing disk); stacks multiplicatively, so
  overlapping episodes and concurrent ``scale_up`` capacity swaps
  compose in any order.
* :class:`ServerCrashSpec` — a VM dies abruptly; its in-flight
  requests fail and the balancer ejects the dead replica.
* :class:`ProvisioningFaultSpec` — ``Hypervisor.launch`` errors or
  takes ``delay_factor`` times the prep period; the actuator retries
  with backoff instead of wedging ``action_in_flight``.
* :class:`TelemetryDropoutSpec` — warehouse windows go missing; the
  SCT estimator flags stale estimates and controllers hold their
  last-known-good caps.
* :class:`ClientTimeoutSpec` — generator-level response deadline with
  capped retries, so tail metrics account for retried work.

Plans also parse from a compact CLI DSL (``repro run --faults ...``):
comma-separated ``kind:...`` atoms, e.g.
``crash:db:120``, ``slow:app:60:30:4``, ``prov:db:100:40:fail``,
``dropout:all:80:25``, ``timeout:50:60:2.0:2``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Union

from repro.errors import ConfigurationError, ExperimentError

__all__ = [
    "SlowNodeSpec",
    "ServerCrashSpec",
    "ProvisioningFaultSpec",
    "TelemetryDropoutSpec",
    "ClientTimeoutSpec",
    "FaultSpec",
    "FaultPlan",
    "parse_fault",
    "parse_faults",
    "episode_class",
]

_TIERS = ("web", "app", "db")
#: Wildcard tier (telemetry dropout / provisioning faults on all tiers).
ALL_TIERS = "*"


def _check_tier(tier: str, wildcard: bool = False) -> None:
    allowed = _TIERS + ((ALL_TIERS,) if wildcard else ())
    if tier not in allowed:
        raise ConfigurationError(
            f"fault tier must be one of {allowed}, got {tier!r}"
        )


def _check_time(at: float) -> None:
    # NaN fails every comparison, so each check asks for the good case.
    if not (math.isfinite(at) and at >= 0):
        raise ConfigurationError(
            f"fault time must be finite and >= 0, got {at!r}"
        )


def _check_window(at: float, duration: float) -> None:
    _check_time(at)
    if not (math.isfinite(duration) and duration > 0):
        raise ConfigurationError(
            f"fault duration must be finite and > 0, got {duration!r}"
        )


@dataclass(frozen=True, slots=True)
class SlowNodeSpec:
    """One replica's capacity divided by ``slowdown`` for a window.

    ``server_index`` selects the target among the tier's live servers
    (sorted by name) at activation time, modulo the live count.
    """

    tier: str
    at: float
    duration: float = 60.0
    slowdown: float = 4.0
    server_index: int = 0

    def __post_init__(self) -> None:
        _check_tier(self.tier)
        _check_window(self.at, self.duration)
        if not (math.isfinite(self.slowdown) and self.slowdown > 1.0):
            raise ConfigurationError(
                f"slowdown must be finite and > 1, got {self.slowdown!r}"
            )
        if self.server_index < 0:
            raise ConfigurationError(
                f"server_index must be >= 0, got {self.server_index!r}"
            )

    kind = "slow"

    @property
    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)

    @property
    def label(self) -> str:
        return (
            f"slow:{self.tier}[{self.server_index}]x{self.slowdown:g}"
            f"@{self.at:g}+{self.duration:g}"
        )


@dataclass(frozen=True, slots=True)
class ServerCrashSpec:
    """A replica dies abruptly at ``at`` (in-flight requests fail)."""

    tier: str
    at: float
    server_index: int = 0

    def __post_init__(self) -> None:
        _check_tier(self.tier)
        _check_time(self.at)
        if self.server_index < 0:
            raise ConfigurationError(
                f"server_index must be >= 0, got {self.server_index!r}"
            )

    kind = "crash"

    @property
    def window(self) -> tuple[float, float]:
        return (self.at, self.at)

    @property
    def label(self) -> str:
        return f"crash:{self.tier}[{self.server_index}]@{self.at:g}"


@dataclass(frozen=True, slots=True)
class ProvisioningFaultSpec:
    """Launches for a tier fail (or slow down) during a window.

    ``mode`` is ``"fail"`` (the launch errors after its prep period;
    the actuator must retry with backoff) or ``"delay"`` (provisioning
    takes ``delay_factor`` times as long).
    """

    tier: str
    at: float
    duration: float
    mode: str = "fail"
    delay_factor: float = 4.0

    def __post_init__(self) -> None:
        _check_tier(self.tier, wildcard=True)
        _check_window(self.at, self.duration)
        if self.mode not in ("fail", "delay"):
            raise ConfigurationError(
                f"mode must be 'fail' or 'delay', got {self.mode!r}"
            )
        if not (math.isfinite(self.delay_factor) and self.delay_factor > 1.0):
            raise ConfigurationError(
                f"delay_factor must be finite and > 1, "
                f"got {self.delay_factor!r}"
            )

    kind = "prov"

    @property
    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)

    @property
    def label(self) -> str:
        return f"prov:{self.tier}:{self.mode}@{self.at:g}+{self.duration:g}"


@dataclass(frozen=True, slots=True)
class TelemetryDropoutSpec:
    """Warehouse windows go missing for a tier (``"*"`` = all tiers)."""

    at: float
    duration: float
    tier: str = ALL_TIERS

    def __post_init__(self) -> None:
        _check_tier(self.tier, wildcard=True)
        _check_window(self.at, self.duration)

    kind = "dropout"

    @property
    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)

    @property
    def label(self) -> str:
        return f"dropout:{self.tier}@{self.at:g}+{self.duration:g}"


@dataclass(frozen=True, slots=True)
class ClientTimeoutSpec:
    """Arrivals during the window carry a response deadline + retries."""

    at: float
    duration: float
    deadline: float = 2.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)
        if not (math.isfinite(self.deadline) and self.deadline > 0):
            raise ConfigurationError(
                f"deadline must be finite and > 0, got {self.deadline!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )

    kind = "timeout"

    @property
    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)

    @property
    def label(self) -> str:
        return (
            f"timeout@{self.at:g}+{self.duration:g}"
            f" d={self.deadline:g} r={self.max_retries}"
        )


FaultSpec = Union[
    SlowNodeSpec,
    ServerCrashSpec,
    ProvisioningFaultSpec,
    TelemetryDropoutSpec,
    ClientTimeoutSpec,
]

_SPEC_TYPES = (
    SlowNodeSpec,
    ServerCrashSpec,
    ProvisioningFaultSpec,
    TelemetryDropoutSpec,
    ClientTimeoutSpec,
)


def _overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, frozen set of fault specs for one run.

    Slow-node episodes may overlap freely (degradation stacks
    multiplicatively, so restore order does not matter). Overlapping
    telemetry dropouts on the same tier key and overlapping client
    timeout windows are rejected — their runtime state is a single
    toggle, so overlap would end the earlier window prematurely.
    Duplicate same-tier crash episodes (same server slot at the same
    instant) are rejected too: both would select the same victim, and
    the second crash would find it already dead.

    ``storyline`` names the :class:`~repro.faults.storyline.Storyline`
    this plan was lowered from, when it was (digest-covered, so a
    storylined run and a hand-rolled plan with the same atoms stay
    distinct cache entries).
    """

    specs: tuple[FaultSpec, ...] = ()
    storyline: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, _SPEC_TYPES):
                raise ConfigurationError(
                    f"FaultPlan entries must be fault specs, got "
                    f"{type(spec).__qualname__}"
                )
        crashes = [s for s in self.specs if isinstance(s, ServerCrashSpec)]
        seen: set[tuple[str, float, int]] = set()
        for c in crashes:
            key = (c.tier, c.at, c.server_index)
            if key in seen:
                raise ExperimentError(
                    f"overlapping same-tier crash episodes: {c.label} "
                    "duplicates an earlier crash on the same server slot"
                )
            seen.add(key)
        dropouts = [s for s in self.specs if isinstance(s, TelemetryDropoutSpec)]
        for i, a in enumerate(dropouts):
            for b in dropouts[i + 1:]:
                same = (
                    a.tier == b.tier or ALL_TIERS in (a.tier, b.tier)
                )
                if same and _overlap(a.window, b.window):
                    raise ExperimentError(
                        f"overlapping telemetry dropouts: {a.label} / {b.label}"
                    )
        timeouts = [s for s in self.specs if isinstance(s, ClientTimeoutSpec)]
        for i, a in enumerate(timeouts):
            for b in timeouts[i + 1:]:
                if _overlap(a.window, b.window):
                    raise ExperimentError(
                        f"overlapping client-timeout windows: "
                        f"{a.label} / {b.label}"
                    )

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def describe(self) -> str:
        """Comma-joined labels (reports, progress lines)."""
        return ",".join(s.label for s in self.specs)

    @property
    def title(self) -> str:
        """Storyline name when lowered from one, else the atom labels."""
        return self.storyline if self.storyline else self.describe()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI DSL: comma-separated ``kind:...`` atoms."""
        atoms = [a.strip() for a in text.split(",") if a.strip()]
        if not atoms:
            raise ConfigurationError(f"empty fault plan {text!r}")
        return cls(tuple(parse_fault(atom) for atom in atoms))


def _dsl_tier(token: str) -> str:
    # "all" is the shell-safe spelling of the "*" wildcard.
    return ALL_TIERS if token in ("all", ALL_TIERS) else token


def parse_fault(atom: str) -> FaultSpec:
    """Parse one DSL atom into a fault spec.

    Grammar (colon-separated; [] optional)::

        slow:TIER:AT[:DURATION[:SLOWDOWN[:INDEX]]]
        crash:TIER:AT[:INDEX]
        prov:TIER:AT:DURATION[:MODE[:FACTOR]]
        dropout:TIER:AT:DURATION          (TIER may be "all")
        timeout:AT:DURATION[:DEADLINE[:RETRIES]]
    """
    parts = atom.split(":")
    kind = parts[0]
    args = parts[1:]
    try:
        if kind == "slow":
            if not 2 <= len(args) <= 5:
                raise ConfigurationError(
                    f"slow takes 2-5 args (tier:at[:dur[:slowdown[:idx]]]), "
                    f"got {atom!r}"
                )
            return SlowNodeSpec(
                tier=args[0],
                at=float(args[1]),
                duration=float(args[2]) if len(args) > 2 else 60.0,
                slowdown=float(args[3]) if len(args) > 3 else 4.0,
                server_index=int(args[4]) if len(args) > 4 else 0,
            )
        if kind == "crash":
            if not 2 <= len(args) <= 3:
                raise ConfigurationError(
                    f"crash takes 2-3 args (tier:at[:idx]), got {atom!r}"
                )
            return ServerCrashSpec(
                tier=args[0],
                at=float(args[1]),
                server_index=int(args[2]) if len(args) > 2 else 0,
            )
        if kind == "prov":
            if not 3 <= len(args) <= 5:
                raise ConfigurationError(
                    f"prov takes 3-5 args (tier:at:dur[:mode[:factor]]), "
                    f"got {atom!r}"
                )
            return ProvisioningFaultSpec(
                tier=_dsl_tier(args[0]),
                at=float(args[1]),
                duration=float(args[2]),
                mode=args[3] if len(args) > 3 else "fail",
                delay_factor=float(args[4]) if len(args) > 4 else 4.0,
            )
        if kind == "dropout":
            if len(args) != 3:
                raise ConfigurationError(
                    f"dropout takes 3 args (tier:at:dur), got {atom!r}"
                )
            return TelemetryDropoutSpec(
                tier=_dsl_tier(args[0]),
                at=float(args[1]),
                duration=float(args[2]),
            )
        if kind == "timeout":
            if not 2 <= len(args) <= 4:
                raise ConfigurationError(
                    f"timeout takes 2-4 args (at:dur[:deadline[:retries]]), "
                    f"got {atom!r}"
                )
            return ClientTimeoutSpec(
                at=float(args[0]),
                duration=float(args[1]),
                deadline=float(args[2]) if len(args) > 2 else 2.0,
                max_retries=int(args[3]) if len(args) > 3 else 2,
            )
    except ValueError as exc:
        raise ConfigurationError(f"bad number in fault atom {atom!r}: {exc}") from None
    raise ConfigurationError(
        f"unknown fault kind {kind!r} in {atom!r} "
        "(expected slow|crash|prov|dropout|timeout)"
    )


def parse_faults(text: str | None) -> FaultPlan | None:
    """CLI entry point: None/empty text means no fault plan."""
    if text is None or not text.strip():
        return None
    return FaultPlan.parse(text)


# Every spec label starts with its fault class: "slow:", "crash:",
# "prov:", "dropout:" or "timeout@"; the injector prefixes its bus-event
# reasons with the label, so the class is recoverable from any
# fault_injected/fault_recovered DecisionEvent without widening the
# (signature-covered) event schema.
_CLASS_RE = re.compile(r"^(slow|crash|prov|dropout):|^(timeout)@")


def episode_class(reason: str) -> str | None:
    """Fault class encoded in a fault event's ``reason``, or None.

    Recovery-aware controllers use this to tell crash/provisioning
    episodes (which should suspend scale-in) apart from slow-node or
    dropout windows (which should merely settle after recovery).
    """
    m = _CLASS_RE.match(reason)
    if not m:
        return None
    return m.group(1) or m.group(2)
