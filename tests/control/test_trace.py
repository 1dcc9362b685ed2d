"""Unit tests for the decision trace: queries, columnar round-trips,
and signatures, and the trace held to the list-of-events reference in
``reference_trace.py``."""

import pickle

import numpy as np
import pytest

from repro.control import trace as trace_module
from repro.control.bus import ControlBus
from repro.control.events import (
    NOOP,
    SOFT_KINDS,
    THRESHOLD_TRIP,
    DecisionEvent,
    declared_kinds,
)
from repro.control.trace import DecisionTrace
from repro.experiments.artifact import content_digest

from .reference_trace import ReferenceTrace


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
        return content_digest(DecisionTrace(events).signature_key())

    assert sig(base) == sig(reworded)
    assert sig(base) != sig(changed)


def test_render_shows_value_and_reason():
    text = DecisionTrace.render(sample_events())
    assert "soft_db_connections" in text
    assert "-> 9" in text
    assert "cpu 0.92 > 0.80" in text


# ----------------------------------------------------------------------
# the columnar trace against the list-of-events reference
# ----------------------------------------------------------------------

TIERS = ("web", "app", "db")
WORDS = ("", "out", "in", "cpu 0.92 > 0.80", "vm-2", "actuator", "SCT Q_lower=18")


def random_events(seed, count=120):
    """Time-ordered events over every declared kind, with ties, and
    ``value`` and ``estimate`` both None and set (0 included)."""
    rng = np.random.default_rng(seed)
    kinds = sorted(declared_kinds())
    times = np.sort(rng.integers(0, count // 3, size=count)) * 0.5
    events = []
    for i, t in enumerate(times.tolist()):
        kind = kinds[i] if i < len(kinds) else kinds[rng.integers(len(kinds))]
        value = None if rng.random() < 0.5 else int(rng.integers(0, 64))
        estimate = None if rng.random() < 0.5 else float(rng.integers(0, 40)) / 2.0
        events.append(DecisionEvent(
            t, kind, TIERS[rng.integers(len(TIERS))], value,
            detail=WORDS[rng.integers(len(WORDS))],
            source=WORDS[rng.integers(len(WORDS))],
            reason=WORDS[rng.integers(len(WORDS))],
            estimate=estimate,
        ))
    return events


def reference_pickle(reference, monkeypatch):
    """The reference pickled under the columnar trace's class name, so
    the two byte strings differ only if their states do."""
    names = ReferenceTrace.__module__, ReferenceTrace.__qualname__
    with monkeypatch.context() as patch:
        patch.setattr(trace_module, "DecisionTrace", ReferenceTrace)
        ReferenceTrace.__module__ = trace_module.__name__
        ReferenceTrace.__qualname__ = "DecisionTrace"
        try:
            return pickle.dumps(reference, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            ReferenceTrace.__module__, ReferenceTrace.__qualname__ = names


def query_results(trace, render):
    """Every query of the trace surface, as one comparable dict."""
    kinds = sorted(declared_kinds())
    out = {
        "len": len(trace),
        "iter": list(trace),
        "all": trace.all(),
        "material": trace.material(),
        "noops": trace.noops(),
        "faults": trace.faults(),
        "of_kind:none": trace.of_kind(),
        "of_kind:unknown": trace.of_kind("bogus"),
        "of_kind:several": trace.of_kind(NOOP, *SOFT_KINDS, THRESHOLD_TRIP),
        "keys": trace.keys(),
        "keys:material": trace.keys(include_noops=False),
        "render": render(trace.all()),
        "render:material": render(trace.material()),
    }
    for kind in kinds:
        out[f"of_kind:{kind}"] = trace.of_kind(kind)
    for tier in TIERS + ("bogus",):
        out[f"for_tier:{tier}"] = trace.for_tier(tier)
        out[f"scale_out_times:{tier}"] = trace.scale_out_times(tier)
        for kind in SOFT_KINDS + (NOOP,):
            out[f"cap_decisions:{tier}:{kind}"] = trace.cap_decisions(tier, kind)
    return out


def assert_same_columns(ours, theirs):
    """Equal column maps (or signature keys, as pairs), byte for byte."""
    ours, theirs = dict(ours), dict(theirs)
    assert list(ours) == list(theirs)
    for name in theirs:
        a, b = ours[name], theirs[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def assert_matches_reference(trace, reference):
    ours = query_results(trace, DecisionTrace.render)
    theirs = query_results(reference, ReferenceTrace.render)
    assert list(ours) == list(theirs)
    for name in theirs:
        # repr also pins the scalar types (an int value must not come
        # back as a float, a time must not come back as a numpy scalar).
        assert ours[name] == theirs[name], name
        assert repr(ours[name]) == repr(theirs[name]), name
    assert_same_columns(trace.to_columns(), reference.to_columns())
    assert_same_columns(trace.signature_key(), reference.signature_key())
    assert content_digest(trace.signature_key()) == content_digest(
        reference.signature_key()
    )


SEEDS = [0, 1, 2, 3]


@pytest.mark.parametrize("seed", [None] + SEEDS, ids=["empty"] + SEEDS)
def test_columnar_trace_matches_the_reference(seed, monkeypatch):
    events = [] if seed is None else random_events(seed)
    if seed is not None:
        assert {e.kind for e in events} == declared_kinds()
        assert any(e.value is None for e in events)
        assert any(e.value == 0 for e in events)
        assert any(e.estimate is None for e in events)
        assert any(e.estimate is not None for e in events)
    live = DecisionTrace()
    for event in events:
        live.append(event)
    reference = ReferenceTrace(events)
    assert_matches_reference(live, reference)
    assert_matches_reference(DecisionTrace(events), reference)

    data = pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL)
    assert data == reference_pickle(reference, monkeypatch)
    loaded = pickle.loads(data)
    assert_matches_reference(loaded, pickle.loads(pickle.dumps(reference)))
    assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == data

    columns = reference.to_columns()
    assert_matches_reference(
        DecisionTrace.from_columns(columns), ReferenceTrace.from_columns(columns)
    )

