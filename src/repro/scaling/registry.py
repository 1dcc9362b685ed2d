"""Pluggable controller registry: one place every framework lives.

Each scaling framework registers a :class:`ControllerSpec` — its name,
a factory building the controller for a run, a typed parameter schema
with defaults, and the decision-event kinds it emits beyond the shared
threshold loop. Everything that used to hard-code the framework list
derives from the registry instead:

* ``execute_spec`` builds controllers through :meth:`ControllerSpec.build`
  (no if/elif dispatch);
* the CLI's ``choices=``, ``repro compare`` and the resilience
  suite's framework axis all come from :func:`registered_frameworks`;
* ``RunSpec`` validates framework names and coerces
  ``RunOverrides.controller_params`` against the registered schema, so
  a typo'd param fails loudly and ``--param headroom=1`` digests
  identically to ``headroom=1.0``;
* ``repro controllers`` lists the registry (``--json`` for machines).

A schema holds only the values a run sets, nine in all: ConScale's
``headroom``, QoS's ``slo_ms`` and ``epsilon`` (the chance constraint
P(RT > SLO) <= epsilon), and the ``fault_aware`` switch every framework
gets. Every other setting of a built-in controller is a module constant
of that controller. A param is a ``float`` (finite, > 0, below an
optional bound) or a ``bool``.

Third-party controllers plug in the same way the built-ins do::

    from repro.scaling.registry import ControllerSpec, ParamSpec, register_controller

    register_controller(ControllerSpec(
        name="mine",
        summary="my experimental controller",
        factory=lambda ctx: MyController(ctx.sim, ctx.warehouse,
                                         ctx.actuator, ctx.tier_configs,
                                         gain=ctx.params["gain"]),
        params=(ParamSpec("gain", "float", 0.5, help="feedback gain"),),
    ))

After registration the name works everywhere a built-in does: ``RunSpec``
construction, the engine's pool workers (specs carry only the *name*;
the worker resolves it in its own registry), the CLI, and the suites.

Registration order is presentation order (``repro compare`` rows, CLI
choices); built-ins register at the bottom of this module in the
historical order ec2, dcm, conscale, predictive, then the newer mpc and
qos baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.control.events import (
    FORECAST,
    MPC_CORRECTION,
    QOS_CONSTRAINT,
    STALE_HOLD,
    declared_kinds,
)
from repro.errors import ConfigurationError
from repro.monitoring.warehouse import MetricWarehouse
from repro.scaling.actuator import Actuator
from repro.scaling.controller import BaseController
from repro.scaling.policy import TierPolicyConfig
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> scaling)
    from repro.experiments.scenarios import ScenarioConfig

__all__ = [
    "ParamSpec",
    "ControllerContext",
    "ControllerSpec",
    "register_controller",
    "get_controller",
    "registered_frameworks",
    "controller_specs",
    "parse_cli_params",
]

#: Parameter value kinds the schema supports: a ``float`` is finite,
#: > 0 and below the spec's ``below`` bound; a ``bool`` is a switch.
PARAM_KINDS = ("float", "bool")

_BOOL_STRINGS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


@dataclass(frozen=True, slots=True)
class ParamSpec:
    """One typed controller parameter with its default.

    ``kind`` drives both CLI parsing (``--param name=value``) and the
    normalisation applied when a :class:`~repro.experiments.artifact.RunSpec`
    is built, so equivalent spellings of a value digest identically and
    an out-of-range value is refused, by name, before any task starts.
    """

    name: str
    kind: str
    default: Any
    help: str = ""
    #: Exclusive upper bound on a ``float`` (e.g. 1 for a probability).
    below: float = math.inf

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ConfigurationError(
                f"param name must be an identifier, got {self.name!r}"
            )
        if self.kind not in PARAM_KINDS:
            raise ConfigurationError(
                f"param {self.name!r}: kind must be one of {PARAM_KINDS}, "
                f"got {self.kind!r}"
            )

    def coerce(self, value: Any) -> Any:
        """Normalise an API-supplied value to the declared kind."""
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"param {self.name!r} expects a bool, got {value!r}"
                )
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"param {self.name!r} expects a float, got {value!r}"
            )
        value = float(value)
        # NaN fails every comparison, so it is refused here too.
        if not (math.isfinite(value) and 0.0 < value < self.below):
            bound = f" and < {self.below:g}" if self.below < math.inf else ""
            raise ConfigurationError(
                f"param {self.name!r} must be finite and > 0{bound}, "
                f"got {value!r}"
            )
        return value

    def parse(self, text: str) -> Any:
        """Parse a CLI value string to the declared kind."""
        try:
            if self.kind == "bool":
                return _BOOL_STRINGS[text.strip().lower()]
            return float(text)
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"param {self.name!r} expects a {self.kind}, got {text!r}"
            ) from None

    def describe(self) -> dict[str, Any]:
        """JSON-ready description (``repro controllers --json``)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "default": self.default,
            "help": self.help,
        }


@dataclass(frozen=True)
class ControllerContext:
    """Everything a controller factory may wire into its controller.

    One per run, assembled by ``execute_spec`` after the application,
    cloud, and monitoring stacks exist. ``params`` is the fully resolved
    parameter dict: registered defaults overlaid with the spec's
    ``controller_params``.
    """

    sim: Simulator
    warehouse: MetricWarehouse
    actuator: Actuator
    config: "ScenarioConfig"
    tier_configs: dict[str, TierPolicyConfig]
    params: dict[str, Any]


@dataclass(frozen=True)
class ControllerSpec:
    """A registered scaling framework."""

    name: str
    factory: Callable[[ControllerContext], BaseController]
    summary: str = ""
    params: tuple[ParamSpec, ...] = ()
    #: Decision-event kinds this controller emits beyond the base
    #: threshold loop (THRESHOLD_TRIP/NOOP and the actuator's kinds).
    #: Registration validates them against the events vocabulary.
    decision_kinds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "_").isidentifier():
            raise ConfigurationError(
                f"controller name must be a simple identifier, got {self.name!r}"
            )
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"controller {self.name!r}: duplicate param names {names}"
            )

    # ------------------------------------------------------------------
    def param(self, name: str) -> ParamSpec:
        """Look up one parameter; unknown names list the valid ones."""
        for p in self.params:
            if p.name == name:
                return p
        valid = ", ".join(p.name for p in self.params) or "(none)"
        raise ConfigurationError(
            f"controller {self.name!r} has no param {name!r}; "
            f"valid params: {valid}"
        )

    def defaults(self) -> dict[str, Any]:
        return {p.name: p.default for p in self.params}

    def coerce_params(self, given: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and normalise explicitly supplied params only.

        Defaults are *not* filled in — the run-spec digest must cover
        what the caller chose, not the schema's current defaults, so
        adding a new parameter later cannot invalidate existing caches.
        """
        return {name: self.param(name).coerce(value)
                for name, value in given.items()}

    def resolve(self, given: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Defaults overlaid with the supplied overrides."""
        params = self.defaults()
        if given:
            params.update(self.coerce_params(given))
        return params

    def build(self, ctx: ControllerContext) -> BaseController:
        controller = self.factory(ctx)
        if not isinstance(controller, BaseController):
            raise ConfigurationError(
                f"controller factory {self.name!r} returned "
                f"{type(controller).__qualname__}, not a BaseController"
            )
        # Recovery-aware control is a property of the *loop*, not of any
        # one framework: every registered controller gets it unless the
        # run's params ablate it (`--param fault_aware=false`).
        if ctx.params.get("fault_aware", True):
            controller.enable_fault_awareness()
        return controller

    def describe(self) -> dict[str, Any]:
        """JSON-ready description (``repro controllers --json``)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "params": [p.describe() for p in self.params],
            "decision_kinds": list(self.decision_kinds),
        }


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, ControllerSpec] = {}


def register_controller(spec: ControllerSpec) -> ControllerSpec:
    """Register a framework; returns the spec for chaining.

    Duplicate names are an error (re-registering a tweaked spec under
    an existing name would silently change what cached digests mean),
    as are decision kinds missing from the events vocabulary — the
    registry is the runtime complement of the ``deep-bus-vocabulary``
    lint rule.
    """
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"controller {spec.name!r} is already registered; "
            "register the changed controller under a new name"
        )
    if not any(p.name == "fault_aware" for p in spec.params):
        # Every framework rides the shared FaultAwareMixin; the param is
        # injected here so each registration does not have to repeat it
        # and the ablation switch is spelled identically everywhere.
        spec = replace(
            spec,
            params=spec.params + (
                ParamSpec(
                    "fault_aware", "bool", True,
                    help="feed fault-lifecycle bus events back into the "
                    "decision loop (scale-in suspension, crash pre-warm, "
                    "post-recovery settle); false = fault-blind ablation",
                ),
            ),
        )
    vocabulary = declared_kinds()
    unknown = sorted(set(spec.decision_kinds) - vocabulary)
    if unknown:
        raise ConfigurationError(
            f"controller {spec.name!r} declares decision kind(s) "
            f"{unknown} not in repro.control.events; declare them there "
            "so of_kind() queries and the deep-bus-vocabulary lint rule "
            "see them"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_controller(name: str) -> ControllerSpec:
    """Resolve a framework name; unknown names list what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"framework must be one of {registered_frameworks()}, "
            f"got {name!r}"
        ) from None


def registered_frameworks() -> tuple[str, ...]:
    """All registered framework names, in registration order: the
    framework namespace of the CLI, ``repro compare`` and the
    resilience suite."""
    return tuple(_REGISTRY)


def controller_specs() -> tuple[ControllerSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


def parse_cli_params(framework: str, assignments: list[str]) -> dict[str, Any]:
    """Parse repeated ``--param NAME=VALUE`` strings for one framework."""
    spec = get_controller(framework)
    out: dict[str, Any] = {}
    for text in assignments:
        name, sep, raw = text.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ConfigurationError(
                f"--param expects NAME=VALUE, got {text!r}"
            )
        out[name] = spec.param(name).parse(raw.strip())
    return out


# ----------------------------------------------------------------------
# built-in controllers
# ----------------------------------------------------------------------

def _build_ec2(ctx: ControllerContext) -> BaseController:
    from repro.scaling.ec2 import EC2AutoScaling

    return EC2AutoScaling(ctx.sim, ctx.warehouse, ctx.actuator, ctx.tier_configs)


def _build_dcm(ctx: ControllerContext) -> BaseController:
    from repro.scaling.dcm import DCMController, default_profile

    return DCMController(
        ctx.sim, ctx.warehouse, ctx.actuator, default_profile(ctx.config),
        ctx.tier_configs,
    )


def _build_conscale(ctx: ControllerContext) -> BaseController:
    from repro.scaling.conscale import ConScaleController
    from repro.scaling.estimator import OptimalConcurrencyEstimator
    from repro.sct.model import SCTModel

    estimator = OptimalConcurrencyEstimator(
        ctx.warehouse,
        SCTModel(tolerance=ctx.config.sct_tolerance),
        window=ctx.config.sct_window,
        drift_check=ctx.config.sct_drift_check,
    )
    return ConScaleController(
        ctx.sim, ctx.warehouse, ctx.actuator, estimator, ctx.tier_configs,
        headroom=ctx.params["headroom"],
    )


def _build_predictive(ctx: ControllerContext) -> BaseController:
    from repro.scaling.predictive import PredictiveAutoScaling

    return PredictiveAutoScaling(
        ctx.sim, ctx.warehouse, ctx.actuator, ctx.tier_configs
    )


def _build_mpc(ctx: ControllerContext) -> BaseController:
    from repro.scaling.mpc import MPCHybridController

    return MPCHybridController(
        ctx.sim, ctx.warehouse, ctx.actuator, ctx.tier_configs
    )


def _build_qos(ctx: ControllerContext) -> BaseController:
    from repro.scaling.qos import QoSRobustController

    p = ctx.params
    return QoSRobustController(
        ctx.sim, ctx.warehouse, ctx.actuator, ctx.tier_configs,
        slo_ms=p["slo_ms"], epsilon=p["epsilon"], rt_scale=ctx.config.rt_scale,
    )


register_controller(ControllerSpec(
    name="ec2",
    summary="reactive threshold hardware scaling only (industry baseline)",
    factory=_build_ec2,
))

register_controller(ControllerSpec(
    name="dcm",
    summary="threshold hardware scaling + offline-trained concurrency table",
    factory=_build_dcm,
))

register_controller(ControllerSpec(
    name="conscale",
    summary="SCT-driven online concurrency adaption (the paper's framework)",
    factory=_build_conscale,
    params=(
        # From 400 up, the app-thread target sits at ConScale's 400 cap
        # for every estimate >= 1; a huge factor overflowed the rounding.
        ParamSpec("headroom", "float", 1.15, below=400.0,
                  help="actuate this factor above the estimated Q_lower"),
    ),
    decision_kinds=(STALE_HOLD,),
))

register_controller(ControllerSpec(
    name="predictive",
    summary="trend-extrapolating proactive hardware scaling (no soft "
    "resources)",
    factory=_build_predictive,
))

register_controller(ControllerSpec(
    name="mpc",
    summary="OptScaler-style hybrid: workload forecast + receding-horizon "
    "MVA cap correction",
    factory=_build_mpc,
    decision_kinds=(FORECAST, MPC_CORRECTION, STALE_HOLD),
))

register_controller(ControllerSpec(
    name="qos",
    summary="RobustScaler-style QoS scaling from a latency chance "
    "constraint",
    factory=_build_qos,
    params=(
        ParamSpec("slo_ms", "float", 250.0,
                  help="latency objective in base-scale milliseconds"),
        ParamSpec("epsilon", "float", 0.05, below=1.0,
                  help="tolerated violation probability, in (0, 1) "
                  "(0.05 = guard the p95)"),
    ),
    decision_kinds=(QOS_CONSTRAINT,),
))
