"""Tests for the open- and closed-loop request generators."""

import pytest

from repro.errors import ConfigurationError
from repro.workload.generator import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
    RequestFactory,
)
from repro.workload.trace import Trace

from tests.conftest import build_app, tiny_mix


def make_factory(rng, **kw):
    return RequestFactory(tiny_mix(**kw), rng.stream("demand"))


def test_factory_assigns_unique_ids(rng):
    fac = make_factory(rng)
    ids = [fac.create(0.0).req_id for _ in range(5)]
    assert ids == [0, 1, 2, 3, 4]


def test_factory_validation(rng):
    with pytest.raises(ConfigurationError):
        RequestFactory(tiny_mix(), rng.stream("d"), dataset_scale=0.0)
    with pytest.raises(ConfigurationError):
        RequestFactory(tiny_mix(), rng.stream("d"), demand_scale=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="must be finite and > 0"):
            RequestFactory(tiny_mix(), rng.stream("d"), dataset_scale=bad)
        with pytest.raises(ConfigurationError, match="must be finite and > 0"):
            RequestFactory(tiny_mix(), rng.stream("d"), demand_scale=bad)


def test_factory_demand_scale(rng):
    fac = RequestFactory(tiny_mix(cv=0.0), rng.stream("d"), demand_scale=10.0)
    req = fac.create(0.0)
    assert req.demands["db"] == pytest.approx(0.05)


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------

def test_open_loop_rate_tracks_trace(sim, rng):
    app = build_app(sim, db_a_sat=1000)
    trace = Trace("flat", [0.0, 60.0], [100.0, 100.0])
    gen = OpenLoopGenerator(
        sim, app, trace, make_factory(rng), rng.stream("arr"), think_time=1.0
    )
    gen.start()
    sim.run(until=60.0)
    # expected 100 req/s * 60 s = 6000 +- sampling noise
    assert gen.generated == pytest.approx(6000, rel=0.10)


def test_open_loop_zero_load_produces_nothing(sim, rng):
    app = build_app(sim)
    trace = Trace("zero", [0.0, 10.0], [0.0, 0.0])
    gen = OpenLoopGenerator(
        sim, app, trace, make_factory(rng), rng.stream("arr")
    )
    gen.start()
    sim.run(until=10.0)
    assert gen.generated == 0


def test_open_loop_stops_at_trace_end(sim, rng):
    app = build_app(sim)
    trace = Trace("short", [0.0, 5.0], [50.0, 50.0])
    gen = OpenLoopGenerator(
        sim, app, trace, make_factory(rng), rng.stream("arr"), think_time=1.0
    )
    gen.start()
    sim.run(until=20.0)
    count_at_5 = gen.generated
    sim.run()
    assert gen.generated == count_at_5


def test_open_loop_stop(sim, rng):
    app = build_app(sim)
    trace = Trace("flat", [0.0, 100.0], [100.0, 100.0])
    gen = OpenLoopGenerator(
        sim, app, trace, make_factory(rng), rng.stream("arr"), think_time=1.0
    )
    gen.start()
    sim.schedule(1.0, gen.stop)
    sim.run(until=10.0)
    assert gen.generated < 300


def test_open_loop_think_time_validation(sim, rng):
    app = build_app(sim)
    trace = Trace("flat", [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        OpenLoopGenerator(sim, app, trace, make_factory(rng), rng.stream("a"),
                          think_time=0.0)


def test_open_loop_rate_at(sim, rng):
    app = build_app(sim)
    trace = Trace("ramp", [0.0, 10.0], [0.0, 100.0])
    gen = OpenLoopGenerator(
        sim, app, trace, make_factory(rng), rng.stream("arr"), think_time=2.0
    )
    assert gen.rate_at(5.0) == pytest.approx(25.0)


def test_open_loop_suspend_pauses_arrivals(sim, rng):
    app = build_app(sim, db_a_sat=1000)
    trace = Trace("flat", [0.0, 60.0], [100.0, 100.0])
    gen = OpenLoopGenerator(
        sim, app, trace, make_factory(rng), rng.stream("arr"), think_time=1.0
    )
    gen.start()
    counts: list[int] = []
    sim.schedule(10.0, gen.suspend)
    sim.schedule(10.0, lambda: counts.append(gen.generated))
    sim.schedule(20.0, lambda: counts.append(gen.generated))
    sim.schedule(20.0, gen.resume)
    sim.run(until=30.0)
    # No arrivals during the suspension window; flow resumes after.
    assert counts[0] == counts[1] > 0
    assert gen.generated > counts[1]


def test_open_loop_resume_without_suspend_is_noop(sim, rng):
    app = build_app(sim, db_a_sat=1000)
    trace = Trace("flat", [0.0, 10.0], [50.0, 50.0])
    gen = OpenLoopGenerator(
        sim, app, trace, make_factory(rng), rng.stream("arr"), think_time=1.0
    )
    gen.start()
    sim.schedule(5.0, gen.resume)  # must not double-schedule arrivals
    sim.run(until=10.0)
    assert gen.generated == pytest.approx(500, rel=0.15)


def test_open_loop_suspended_at_stop_stays_stopped(sim, rng):
    app = build_app(sim, db_a_sat=1000)
    trace = Trace("flat", [0.0, 60.0], [100.0, 100.0])
    gen = OpenLoopGenerator(
        sim, app, trace, make_factory(rng), rng.stream("arr"), think_time=1.0
    )
    gen.start()
    sim.schedule(5.0, gen.suspend)
    sim.schedule(6.0, gen.stop)
    sim.schedule(7.0, gen.resume)
    sim.run(until=20.0)
    assert gen.generated == pytest.approx(500, rel=0.20)


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------

def test_closed_loop_pins_concurrency(sim, rng):
    app = build_app(sim, db_a_sat=1000)
    gen = ClosedLoopGenerator(
        sim, app, 5, make_factory(rng), rng.stream("u"), think_time=0.0
    )
    gen.start()
    observed = []
    for t in (0.05, 0.1, 0.15):
        sim.schedule(t, lambda: observed.append(app.in_flight))
    sim.run(until=0.2)
    assert observed == [5, 5, 5]


def test_closed_loop_throughput_littles_law(sim, rng):
    app = build_app(sim, db_a_sat=1000)
    gen = ClosedLoopGenerator(
        sim, app, 4, make_factory(rng, cv=0.0), rng.stream("u"), think_time=0.0
    )
    gen.start()
    sim.run(until=10.0)
    # demands sum to 7.5 ms, 4 users, no queueing -> ~533 req/s
    assert app.completed == pytest.approx(4 / 0.0075 * 10.0, rel=0.05)


def test_closed_loop_with_think_time(sim, rng):
    app = build_app(sim, db_a_sat=1000)
    gen = ClosedLoopGenerator(
        sim, app, 10, make_factory(rng), rng.stream("u"), think_time=1.0
    )
    gen.start()
    sim.run(until=20.0)
    # each user completes roughly 1/(1s + 8ms) per second
    assert app.completed == pytest.approx(10 * 20 / 1.0075, rel=0.15)


def test_closed_loop_stop(sim, rng):
    app = build_app(sim)
    gen = ClosedLoopGenerator(
        sim, app, 3, make_factory(rng), rng.stream("u"), think_time=0.0
    )
    gen.start()
    sim.schedule(0.5, gen.stop)
    sim.run(until=2.0)
    assert app.in_flight == 0  # all in-flight finished, none re-issued


def test_closed_loop_validation(sim, rng):
    app = build_app(sim)
    with pytest.raises(ConfigurationError):
        ClosedLoopGenerator(sim, app, 0, make_factory(rng), rng.stream("u"))
    with pytest.raises(ConfigurationError):
        ClosedLoopGenerator(sim, app, 1, make_factory(rng), rng.stream("u"),
                            think_time=-1.0)


# ----------------------------------------------------------------------
# client timeouts / abandonment
# ----------------------------------------------------------------------

def test_closed_loop_timeout_validation(sim, rng):
    app = build_app(sim)
    gen = ClosedLoopGenerator(sim, app, 1, make_factory(rng), rng.stream("u"))
    with pytest.raises(ConfigurationError):
        gen.set_client_timeout(0.0)


def test_generous_timeout_changes_nothing(sim, rng):
    app = build_app(sim, db_a_sat=1000)
    gen = ClosedLoopGenerator(
        sim, app, 4, make_factory(rng, cv=0.0), rng.stream("u"),
        think_time=0.0,
    )
    gen.set_client_timeout(10.0)
    gen.start()
    sim.run(until=10.0)
    assert gen.timeouts == 0
    assert app.completed == pytest.approx(4 / 0.0075 * 10.0, rel=0.05)


def test_tight_timeout_under_overload_abandons_and_retries(sim, rng):
    # a_sat=1 db with 20 users: steady RT ~ 20*5ms = 100ms >> 30ms timeout
    app = build_app(sim, db_a_sat=1.0)
    gen = ClosedLoopGenerator(
        sim, app, 20, make_factory(rng, cv=0.0), rng.stream("u"),
        think_time=0.0,
    )
    gen.set_client_timeout(0.030)
    gen.start()
    sim.run(until=10.0)
    assert gen.timeouts > 50, "expected many abandonments under overload"
    # retry amplification: abandoned requests still occupy the system,
    # so in-flight work exceeds the user population
    assert app.in_flight > 20


def test_timeout_survivors_still_counted_once(sim, rng):
    """A request that completes after its user abandoned must not
    re-trigger that user's loop (no double-issue)."""
    app = build_app(sim, db_a_sat=1.0)
    gen = ClosedLoopGenerator(
        sim, app, 5, make_factory(rng, cv=0.0), rng.stream("u"),
        think_time=0.0,
    )
    gen.set_client_timeout(0.020)
    gen.start()
    sim.run(until=5.0)
    gen.stop()
    sim.run(until=30.0)  # drain everything
    assert app.in_flight == 0
    # conservation: every generated request either completed or is gone
    assert app.completed == app.submitted
    # and the number of issues equals completions+timeouts bookkeeping
    assert gen.generated <= app.submitted + 1
