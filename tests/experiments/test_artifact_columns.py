"""The artifact's SCT estimate histories and decision trace as columns.

Each tier's estimate history is an :class:`EstimateHistory` of numpy
columns whose rows must equal the estimator's ``TierEstimate``\\ s after
packaging, a pickle round trip and a cache round trip. Artifacts
written before the columns kept ``TierEstimate`` lists; they must load
through every reader with the same signature. A cache hit must build no
``DecisionEvent``, ``TierEstimate`` or ``SCTEstimate``.
"""

from __future__ import annotations

import gc
import itertools
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.control.events import DecisionEvent
from repro.errors import EstimationError
from repro.experiments.artifact import RunArtifact, RunSpec
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine
from repro.experiments.persistence import load_artifact
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.scaling.estimator import EstimateHistory, TierEstimate
from repro.sct.model import SCTEstimate

PER_EVENT_TYPES = (DecisionEvent, TierEstimate, SCTEstimate)


def small_spec():
    config = ScenarioConfig(name="columns", trace_name="dual_phase",
                            load_scale=300.0, duration=60.0, seed=2)
    return RunSpec("conscale", config)


@pytest.fixture(scope="module")
def packaged():
    """(artifact, the estimator's history lists by tier) of one run."""
    histories = {}
    original = EstimateHistory.from_estimates.__func__

    def spy(cls, estimates):
        history = original(cls, estimates)
        histories[history.tier] = list(estimates)
        return history

    patch = pytest.MonkeyPatch()
    patch.setattr(EstimateHistory, "from_estimates", classmethod(spy))
    try:
        artifact = execute_spec(small_spec())
    finally:
        patch.undo()
    return artifact, histories


def parent_keys(histories):
    """The signature rows as the artifact built them from the lists."""
    return [
        (t, e.time, e.optimal, e.q_upper, e.actionable)
        for t, hist in sorted(histories.items())
        for e in hist
    ]


def assert_same_rows(artifact, histories):
    assert sorted(artifact.estimates) == sorted(histories)
    for tier, expected in histories.items():
        history = artifact.estimates[tier]
        assert isinstance(history, EstimateHistory)
        assert len(history) == len(expected)
        assert list(history) == expected, tier
    keys = artifact.estimate_keys()
    assert keys == parent_keys(histories)
    assert repr(keys) == repr(parent_keys(histories))


def test_run_has_estimates_and_a_trace(packaged):
    artifact, histories = packaged
    assert set(histories) == {"app", "db"}
    assert all(histories.values())
    assert any(len(e.per_server) > 1 for hist in histories.values() for e in hist)
    assert len(artifact.actions) > 0


def test_rows_equal_the_estimator_history(packaged, tmp_path):
    artifact, histories = packaged
    assert_same_rows(artifact, histories)

    loaded = pickle.loads(pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL))
    assert_same_rows(loaded, histories)
    assert loaded.signature() == artifact.signature()

    cache = ResultCache(str(tmp_path / "cache"))
    key = artifact.spec.digest()
    cache.store(key, artifact)
    cached = ResultCache(cache.directory).load(key)
    assert_same_rows(cached, histories)
    assert cached.signature() == artifact.signature()


def test_columns_are_read_only(packaged):
    artifact, _ = packaged
    for history in (artifact.estimates["app"],
                    pickle.loads(pickle.dumps(artifact.estimates["app"]))):
        for column in (history.time, history.actionable, history.per_server["tp_max"]):
            with pytest.raises(ValueError):
                column[0] = column[0]


def test_actionable_follows_the_property(packaged):
    _, histories = packaged
    flags = list(itertools.product((False, True), repeat=3))
    synthetic = [
        TierEstimate(tier="db", time=float(i), optimal=10 + i, q_upper=20 + i,
                     saturation_observed=saturated, hardware_limited=limited,
                     plateau_hot=limited, per_server={}, stale=stale)
        for i, (saturated, limited, stale) in enumerate(flags)
    ]
    for expected in [synthetic, *histories.values()]:
        history = EstimateHistory.from_estimates(expected)
        assert history.actionable.dtype == np.bool_
        assert history.actionable.tolist() == [e.actionable for e in expected]
        assert list(history) == expected


def test_empty_history():
    history = EstimateHistory.from_estimates([])
    for h in (history, pickle.loads(pickle.dumps(history))):
        assert len(h) == 0
        assert not h
        assert list(h) == []
        assert h.keys() == []
        assert h.time.dtype == np.float64 and h.time.shape == (0,)
        assert h.per_server["estimate"].shape == (0,)


def test_a_history_holds_one_tier(packaged):
    _, histories = packaged
    with pytest.raises(EstimationError, match="one tier"):
        EstimateHistory.from_estimates(histories["app"] + histories["db"])


def parent_layout(artifact, histories):
    """The same run in the layout written before the columns: the
    instance dict holds each tier's history as a TierEstimate list."""
    old = object.__new__(RunArtifact)
    old.__dict__.update(vars(artifact))
    old.__dict__["estimates"] = {t: list(h) for t, h in histories.items()}
    return old


def test_parent_layout_loads_with_the_same_content(packaged, tmp_path):
    artifact, histories = packaged
    old = parent_layout(artifact, histories)
    data = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"TierEstimate" in data
    assert b"EstimateHistory" not in data

    assert_same_rows(pickle.loads(data), histories)
    assert pickle.loads(data).signature() == artifact.signature()

    cache = ResultCache(str(tmp_path / "cache"))
    key = artifact.spec.digest()
    cache.store(key, old)
    cached = ResultCache(cache.directory).load(key)
    assert_same_rows(cached, histories)
    assert cached.signature() == artifact.signature()

    path = tmp_path / "old.pkl"
    path.write_bytes(data)
    loaded = load_artifact(str(path))
    assert_same_rows(loaded, histories)
    assert loaded.signature() == artifact.signature()


def live_per_event_objects():
    gc.collect()
    return Counter(
        type(o).__name__ for o in gc.get_objects() if isinstance(o, PER_EVENT_TYPES)
    )


def test_a_cache_hit_builds_no_per_event_objects(tmp_path, monkeypatch):
    spec = small_spec()
    cold = ExperimentEngine(jobs=1, cache_dir=str(tmp_path)).run(spec)
    assert len(cold.actions) > 0
    assert all(len(h) > 0 for h in cold.estimates.values())
    signature = cold.signature()
    del cold

    built = Counter()

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            built[cls.__name__] += 1
            return original(self, *args, **kwargs)

        return wrapper

    # Construction and unpickling (a frozen slots dataclass restores
    # through __setstate__) of each per-event type are both counted.
    for cls in PER_EVENT_TYPES:
        for name in ("__init__", "__setstate__"):
            monkeypatch.setattr(cls, name, counting(cls, name))

    before = live_per_event_objects()
    engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path))
    warm = engine.run(spec)
    assert engine.stats.hits == 1 and engine.executed == 0
    assert built == Counter()
    assert live_per_event_objects() == before

    assert warm.signature() == signature
    assert built == Counter()
    # The counters see the objects a query builds.
    app = list(warm.estimates["app"])
    assert built["TierEstimate"] == len(app)
    assert built["SCTEstimate"] == sum(len(e.per_server) for e in app)
    assert len(warm.actions.material()) == built["DecisionEvent"] > 0
