"""Unit tests for the decision trace: queries, columnar round-trips,
and signatures."""

import pickle

import numpy as np

from repro.control.bus import ControlBus
from repro.control.events import NOOP, THRESHOLD_TRIP, DecisionEvent
from repro.control.trace import DecisionTrace


def sample_events():
    return [
        DecisionEvent(1.0, THRESHOLD_TRIP, "app", detail="out",
                      source="ec2-autoscaling", reason="cpu 0.92 > 0.80"),
        DecisionEvent(1.0, "scale_out_started", "app", detail="vm-2",
                      source="actuator"),
        DecisionEvent(2.0, NOOP, "db", source="ec2-autoscaling",
                      reason="cpu 0.35 within thresholds"),
        DecisionEvent(16.0, "scale_out_ready", "app", detail="app-2",
                      source="actuator"),
        DecisionEvent(17.0, "soft_db_connections", "app", value=9,
                      source="actuator", reason="SCT Q_lower=18 / 2 app",
                      estimate=18.0),
    ]


def test_trace_records_from_bus():
    bus = ControlBus()
    trace = DecisionTrace().attach(bus)
    for event in sample_events():
        bus.publish(event)
    assert len(trace) == 5
    assert trace.all() == sample_events()


def test_query_surface():
    trace = DecisionTrace(sample_events())
    assert [e.kind for e in trace.material()] == [
        THRESHOLD_TRIP, "scale_out_started", "scale_out_ready",
        "soft_db_connections",
    ]
    assert len(trace.noops()) == 1
    assert trace.noops()[0].reason == "cpu 0.35 within thresholds"
    assert trace.scale_out_times("app") == [16.0]
    assert trace.cap_decisions("app", "soft_db_connections") == [(17.0, 9)]
    assert [e.tier for e in trace.for_tier("db")] == ["db"]
    assert len(trace.of_kind(THRESHOLD_TRIP, NOOP)) == 2


def test_keys_exclude_free_text():
    """Two traces whose decisions match but whose reasons differ must
    compare equal through keys() — reasons embed formatted floats."""
    a = DecisionTrace([DecisionEvent(1.0, "soft_app_threads", "app", 20,
                                     reason="cpu 0.81")])
    b = DecisionTrace([DecisionEvent(1.0, "soft_app_threads", "app", 20,
                                     reason="cpu 0.82")])
    assert a.keys() == b.keys()
    assert a.keys(include_noops=False) == [(1.0, "soft_app_threads", "app", 20)]


def test_columns_roundtrip_preserves_everything():
    trace = DecisionTrace(sample_events())
    clone = DecisionTrace.from_columns(trace.to_columns())
    assert clone.all() == trace.all()


def test_pickle_roundtrip_is_columnar():
    trace = DecisionTrace(sample_events())
    state = trace.__getstate__()
    assert set(state) == {"columns"}
    assert isinstance(state["columns"]["time"], np.ndarray)
    clone = pickle.loads(pickle.dumps(trace))
    assert clone.all() == trace.all()


def test_empty_trace_roundtrips():
    trace = DecisionTrace()
    clone = pickle.loads(pickle.dumps(trace))
    assert len(clone) == 0
    assert clone.keys() == []
    assert clone.material() == []
    restored = DecisionTrace.from_columns(trace.to_columns())
    assert restored.all() == []


def test_signature_key_ignores_reason_but_not_decisions():
    base = [DecisionEvent(1.0, "soft_app_threads", "app", 20, reason="x")]
    reworded = [DecisionEvent(1.0, "soft_app_threads", "app", 20, reason="y")]
    changed = [DecisionEvent(1.0, "soft_app_threads", "app", 21, reason="x")]

    def sig(events):
        from repro.experiments.artifact import content_digest

        return content_digest(DecisionTrace(events).signature_key())

    assert sig(base) == sig(reworded)
    assert sig(base) != sig(changed)


def test_render_shows_value_and_reason():
    text = DecisionTrace.render(sample_events())
    assert "soft_db_connections" in text
    assert "-> 9" in text
    assert "cpu 0.92 > 0.80" in text
