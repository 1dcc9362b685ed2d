"""Threshold-based hardware scaling policy.

The classic EC2-AutoScaling rule shared by all three frameworks: scale
a tier out when its average CPU utilisation exceeds the high threshold
(80 % in the paper), scale it in when utilisation stays below the low
threshold for a sustained period. The "quick start but slow turn-off"
strategy (Gandhi et al., adopted by the paper to avoid oscillation)
maps to: a short smoothing window and cool-down for scale-out, a long
sustained-low requirement and cool-down for scale-in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.monitoring.warehouse import TELEMETRY_STALE_AFTER, MetricWarehouse
from repro.scaling.actuator import Actuator
from repro.sim.engine import Simulator

__all__ = ["TierPolicyConfig", "PolicyDecision", "ThresholdPolicy"]


@dataclass(frozen=True, slots=True)
class PolicyDecision:
    """One tier's evaluated threshold decision with its justification.

    ``action`` is ``"out"``, ``"in"``, or None; ``reason`` explains the
    choice (including why nothing happened — cool-downs, in-flight
    actions, utilisation within thresholds) so no-op ticks are as
    auditable as scaling ones. ``cpu`` is the smoothed utilisation the
    decision was based on.
    """

    action: str | None
    reason: str
    cpu: float


@dataclass(frozen=True, slots=True)
class TierPolicyConfig:
    """Threshold parameters for one scalable tier."""

    high_threshold: float = 0.80
    low_threshold: float = 0.40
    out_window: float = 5.0  # smoothing window for the scale-out signal
    out_cooldown: float = 20.0  # min gap between scale-out launches
    in_sustain: float = 30.0  # how long util must stay low to scale in
    in_cooldown: float = 30.0  # min gap between scale-in actions
    min_size: int = 1
    max_size: int = 10
    # Hybrid-threshold component (the paper combines CPU utilisation
    # with concurrency/throughput signals): also scale out when the
    # tier's admission queues are deep relative to their capacity while
    # the CPU is already warm. This matters when soft-resource caps
    # hold the measured CPU just under the utilisation threshold.
    pressure_ratio: float = 0.5
    pressure_cpu: float = 0.60
    # Vertical-first strategy: satisfy scale-out decisions by adding
    # vCPUs to existing servers (up to max_vcpus) before adding VMs.
    # The paper's Section III-C-1 scale-up experiments use this path.
    prefer_vertical: bool = False
    vertical_factor: float = 2.0
    max_vcpus: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.low_threshold < self.high_threshold <= 1.0:
            raise ConfigurationError(
                "need 0 < low_threshold < high_threshold <= 1, got "
                f"{self.low_threshold!r} / {self.high_threshold!r}"
            )
        if self.min_size < 1 or self.max_size < self.min_size:
            raise ConfigurationError(
                f"need 1 <= min_size <= max_size, got "
                f"{self.min_size!r} / {self.max_size!r}"
            )


class ThresholdPolicy:
    """Per-tier threshold decisions with cool-downs and sustained-low
    detection. One instance manages all scalable tiers of a controller."""

    def __init__(
        self,
        sim: Simulator,
        warehouse: MetricWarehouse,
        actuator: Actuator,
        configs: dict[str, TierPolicyConfig],
    ) -> None:
        if not configs:
            raise ConfigurationError("policy needs at least one scalable tier")
        self.sim = sim
        self.warehouse = warehouse
        self.actuator = actuator
        self.configs = dict(configs)
        self._last_out: dict[str, float] = {}
        self._last_in: dict[str, float] = {}
        # Time since which utilisation has been continuously below the
        # low threshold (None = currently not low).
        self._low_since: dict[str, float | None] = {t: None for t in configs}

    # ------------------------------------------------------------------
    def decide(self, tier: str) -> str | None:
        """Evaluate one tier; returns "out", "in", or None.

        Pure decision — the controller invokes the actuator. Cool-down
        bookkeeping is updated by :meth:`note_action`.
        """
        return self.evaluate(tier).action

    def evaluate(self, tier: str) -> PolicyDecision:
        """Evaluate one tier, returning the decision *and* its reason.

        The reason string feeds the no-op/threshold-trip
        :class:`~repro.control.events.DecisionEvent`\\ s, so every tick
        of every controller leaves an auditable record of why it did or
        did not act.
        """
        cfg = self.configs[tier]
        now = self.sim.now
        size = self.actuator.app.tiers[tier].size
        age = self.warehouse.telemetry_age(tier)
        if age != float("inf") and age > TELEMETRY_STALE_AFTER:
            # Telemetry dropout: the windowed CPU decays toward 0.0 and
            # would read as an idle tier, so hold, and restart the
            # sustained-low clock so the blind stretch cannot count
            # toward scale-in. The "never sampled yet" startup state
            # (age inf) treats missing data as 0.0 load.
            self._low_since[tier] = None
            return PolicyDecision(
                None,
                f"telemetry stale ({age:.1f}s since last sample); holding",
                0.0,
            )
        cpu_fast = self.warehouse.tier_cpu(tier, cfg.out_window)

        # Track the sustained-low state on every tick regardless of
        # cool-downs, so the in-decision uses true elapsed time.
        if cpu_fast < cfg.low_threshold:
            if self._low_since[tier] is None:
                self._low_since[tier] = now
        else:
            self._low_since[tier] = None

        if self.actuator.action_in_flight(tier):
            return PolicyDecision(
                None, "hardware action in flight (provisioning or draining)",
                cpu_fast,
            )

        # Quick start: scale out on a short-window CPU breach, or on
        # admission-queue pressure with a warm CPU (hybrid threshold).
        queued, capacity = self.actuator.app.admission_pressure(tier)
        pressured = (
            capacity > 0
            and queued >= cfg.pressure_ratio * capacity
            and cpu_fast >= cfg.pressure_cpu
        )
        breached = cpu_fast > cfg.high_threshold or pressured
        if breached and size < cfg.max_size:
            if now - self._last_out.get(tier, -1e18) >= cfg.out_cooldown:
                if cpu_fast > cfg.high_threshold:
                    why = (
                        f"cpu {cpu_fast:.2f} > high threshold "
                        f"{cfg.high_threshold:.2f}"
                    )
                else:
                    why = (
                        f"admission queue {queued}/{capacity} with warm "
                        f"cpu {cpu_fast:.2f}"
                    )
                return PolicyDecision("out", why, cpu_fast)
            return PolicyDecision(
                None,
                f"threshold breached (cpu {cpu_fast:.2f}) but scale-out "
                "cool-down active",
                cpu_fast,
            )
        if breached and size >= cfg.max_size:
            return PolicyDecision(
                None,
                f"threshold breached (cpu {cpu_fast:.2f}) but tier at "
                f"max size {cfg.max_size}",
                cpu_fast,
            )

        # Slow turn-off: require a long continuously-low stretch.
        low_since = self._low_since[tier]
        if (
            low_since is not None
            and now - low_since >= cfg.in_sustain
            and size > cfg.min_size
            and now - self._last_in.get(tier, -1e18) >= cfg.in_cooldown
            and now - self._last_out.get(tier, -1e18) >= cfg.in_sustain
        ):
            return PolicyDecision(
                "in",
                f"cpu below {cfg.low_threshold:.2f} for "
                f"{now - low_since:.0f}s (sustained-low)",
                cpu_fast,
            )
        if low_since is not None and size > cfg.min_size:
            return PolicyDecision(
                None,
                f"cpu low ({cpu_fast:.2f}) but sustained-low/cool-down "
                "conditions for scale-in not met",
                cpu_fast,
            )
        return PolicyDecision(
            None, f"cpu {cpu_fast:.2f} within thresholds", cpu_fast
        )

    def can_scale_out(self, tier: str) -> bool:
        """Whether a scale-out is currently permitted (cool-down over,
        nothing in flight, below max size). Used by proactive
        controllers that trigger on predicted rather than current load."""
        cfg = self.configs[tier]
        return (
            not self.actuator.action_in_flight(tier)
            and self.actuator.app.tiers[tier].size < cfg.max_size
            and self.sim.now - self._last_out.get(tier, -1e18) >= cfg.out_cooldown
        )

    def note_action(self, tier: str, direction: str) -> None:
        """Record that the controller acted, starting the cool-down."""
        now = self.sim.now
        if direction == "out":
            self._last_out[tier] = now
            self._low_since[tier] = None
        elif direction == "in":
            self._last_in[tier] = now
            self._low_since[tier] = None
        else:
            raise ConfigurationError(f"direction must be 'out' or 'in', got {direction!r}")
