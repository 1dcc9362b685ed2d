"""Recovery-aware control: the FaultAwareMixin feedback loop.

Two layers of coverage:

* unit — the mixin driven directly with synthetic fault events against
  stub collaborators: scale-in veto lifecycle (prov episode, crash
  holdoff with its lapse, settle window), immediate vs deferred
  pre-warm, expedited retries on heal;
* integration — an ``az-outage`` storyline at the reduced test scale:
  the aware run emits the recovery vocabulary and restores the ejected
  replica strictly sooner than the ``fault_aware=false`` ablation,
  with both runs byte-reproducible.
"""

from __future__ import annotations

import pytest

from repro.control.events import (
    PREWARM_ISSUED,
    RECOVERY_KINDS,
    SCALEIN_SUSPENDED,
    DecisionEvent,
)
from repro.experiments.artifact import RunOverrides, RunSpec
from repro.experiments.runner import execute_spec
from repro.experiments.resilience import resilience_scenario
from repro.faults.storyline import parse_storyline
from repro.scaling.faultaware import (
    CRASH_HOLDOFF_MAX,
    SETTLE_WINDOW,
    FaultAwareMixin,
)
from repro.scaling.registry import get_controller


# ----------------------------------------------------------------------
# unit layer: the mixin against stub collaborators
# ----------------------------------------------------------------------

class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _FakeApp:
    tiers = ("web", "app", "db")


class _FakeActuator:
    def __init__(self):
        self.app = _FakeApp()
        self.launches = []
        self.expedited = []
        self.in_flight = set()

    def action_in_flight(self, tier):
        return tier in self.in_flight

    def scale_out(self, tier, reason=""):
        self.launches.append((tier, reason))

    def expedite_retries(self, tier):
        self.expedited.append(tier)
        return 0


class _FakePolicy:
    configs = {"app": None, "db": None}


class _Harness(FaultAwareMixin):
    def __init__(self):
        self.sim = _FakeSim()
        self.actuator = _FakeActuator()
        self.policy = _FakePolicy()
        self.emitted = []

    def emit(self, kind, tier, value=None, detail="", reason="",
             estimate=None):
        self.emitted.append((kind, tier, detail, reason))


def _event(kind, tier, detail="", reason=""):
    return DecisionEvent(
        time=0.0, kind=kind, tier=tier, detail=detail, reason=reason
    )


@pytest.fixture()
def harness():
    h = _Harness()
    h.enable_fault_awareness()
    return h


def test_mixin_is_inert_until_enabled():
    h = _Harness()
    assert not h.fault_aware
    assert h.scalein_blocked("db", 0.0) is None
    h.enable_fault_awareness()
    assert h.fault_aware
    h._on_fault_event(_event("fault_injected", "*", reason="prov:*:fail@24+6: x"))
    h.enable_fault_awareness()  # idempotent: the open episode survives
    assert h.scalein_blocked("db", 1.0) == "provisioning-fault episode open"


def test_prov_episode_suspends_scalein_until_settle_expires(harness):
    inject = _event("fault_injected", "*", reason="prov:*:fail@24+6: x")
    harness._on_fault_event(inject)
    assert harness.scalein_blocked("db", 1.0) == (
        "provisioning-fault episode open"
    )
    # Arming is announced per controlled tier.
    armed = [e for e in harness.emitted if e[0] == SCALEIN_SUSPENDED]
    assert {e[1] for e in armed} == {"app", "db"}
    harness.sim.now = 30.0
    harness._on_fault_event(
        _event("fault_recovered", "*", reason="prov:*:fail@24+6: healed")
    )
    # Heal expedites backoff retries on every tier and opens a settle
    # window: destructive actions stay vetoed for SETTLE_WINDOW more.
    assert harness.actuator.expedited == ["web", "app", "db"]
    assert "settle window" in harness.scalein_blocked("db", 31.0)
    assert harness.scalein_blocked("db", 30.0 + SETTLE_WINDOW) is None


def test_ejection_prewarms_and_holds_until_replacement_ready(harness):
    harness.sim.now = 24.6
    harness._on_fault_event(_event("server_ejected", "db", detail="db-1"))
    assert harness.actuator.launches == [
        ("db", "prewarm replacement for db-1")
    ]
    assert [e[0] for e in harness.emitted] == [
        SCALEIN_SUSPENDED, PREWARM_ISSUED,
    ]
    assert harness.scalein_blocked("db", 30.0) == (
        "crash replacement still pending"
    )
    harness.sim.now = 40.0
    harness._on_fault_event(_event("scale_out_ready", "db", detail="db-3"))
    assert "settle window" in harness.scalein_blocked("db", 41.0)
    assert harness.scalein_blocked("db", 40.0 + SETTLE_WINDOW) is None


def test_crash_holdoff_lapses_rather_than_pinning_forever(harness):
    harness.sim.now = 10.0
    harness.actuator.in_flight.add("db")  # draining: no double-provision
    harness._on_fault_event(_event("server_ejected", "db", detail="db-1"))
    assert harness.actuator.launches == []
    assert harness.scalein_blocked("db", 10.0 + CRASH_HOLDOFF_MAX) is not None
    assert harness.scalein_blocked("db", 11.0 + CRASH_HOLDOFF_MAX) is None


def test_prewarm_deferred_while_provisioning_episode_open(harness):
    harness._on_fault_event(
        _event("fault_injected", "*", reason="prov:*:fail@24+6: x")
    )
    harness.sim.now = 24.6
    harness._on_fault_event(_event("server_ejected", "db", detail="db-1"))
    # Launching now would be doomed at start time — nothing fired yet.
    assert harness.actuator.launches == []
    harness.sim.now = 30.0
    harness._on_fault_event(
        _event("fault_recovered", "*", reason="prov:*:fail@24+6: healed")
    )
    assert harness.actuator.launches == [
        ("db", "prewarm replacement for db-1")
    ]
    deferred = [e for e in harness.emitted if e[0] == PREWARM_ISSUED]
    assert deferred == [
        (PREWARM_ISSUED, "db", "db-1", "deferred until provisioning healed")
    ]


# ----------------------------------------------------------------------
# integration layer: az-outage at test scale, aware vs blind
# ----------------------------------------------------------------------

def _config():
    return resilience_scenario(
        load_scale=300.0, duration=60.0, seed=2, trace_name="dual_phase"
    )


def _plan():
    return parse_storyline("az-outage:db:24:12", run_duration=60.0, seed=2)


@pytest.fixture(scope="module")
def aware():
    return execute_spec(RunSpec("conscale", _config(), faults=_plan()))


@pytest.fixture(scope="module")
def blind():
    ablation = RunOverrides(controller_params=(("fault_aware", False),))
    return execute_spec(
        RunSpec("conscale", _config(), overrides=ablation, faults=_plan())
    )


def test_registry_declares_the_ablation_switch():
    spec = get_controller("conscale")
    param = spec.param("fault_aware")
    assert param.kind == "bool" and param.default is True


def test_aware_run_speaks_the_recovery_vocabulary(aware, blind):
    kinds = {e.kind for e in aware.actions.all()}
    assert set(RECOVERY_KINDS) <= kinds
    blind_kinds = {e.kind for e in blind.actions.all()}
    assert blind_kinds.isdisjoint(RECOVERY_KINDS)


def test_prewarm_waits_out_the_provisioning_fault(aware):
    # The deferral means the aware run never launches a doomed VM:
    # no provisioning failures at all, and the pre-warm is stamped
    # with the deferred reason at the heal instant.
    assert aware.actions.of_kind("scale_out_failed") == []
    (prewarm,) = aware.actions.of_kind(PREWARM_ISSUED)
    assert prewarm.reason == "deferred until provisioning healed"
    heal = next(
        e for e in aware.actions.of_kind("fault_recovered")
        if "prov" in e.reason
    )
    assert prewarm.time == heal.time


def test_aware_restores_capacity_strictly_sooner(aware, blind):
    a, b = aware.resilience, blind.resilience
    assert a.restore_s < b.restore_s
    # Same incident on both sides — the gap is pure control policy.
    assert [ep.kind for ep in a.episodes] == [ep.kind for ep in b.episodes]


def test_aware_run_reproducible(aware):
    again = execute_spec(RunSpec("conscale", _config(), faults=_plan()))
    assert again.signature() == aware.signature()
