"""Tests for the processor-sharing server."""

import pytest

from repro.errors import SimulationError
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sim.engine import Simulator
from tests.ntier.reference_server import ReferenceServer
from tests.sim.heap_oracle import HeapSimulator


def make_server(sim, a_sat=10.0, sigma=0.0, kappa=0.0, threads=100, cls=Server):
    cap = CapacityModel(
        [Resource("cpu", 1.0, 1.0 / a_sat)], ContentionModel(sigma, kappa)
    )
    return cls(sim, ServerConfig("s-1", "db", cap, threads))


def make_request(req_id=0, demand=1.0):
    return Request(req_id=req_id, interaction="X", arrival=0.0, demands={"db": demand})


def run_one(sim, server, req, demand):
    done = []
    server.admit(req, demand, done.append)
    return done


def test_single_job_runs_at_unit_rate():
    sim = Simulator()
    server = make_server(sim)
    req = make_request()
    done = run_one(sim, server, req, demand=2.0)
    sim.run()
    assert done == [req]
    assert sim.now == pytest.approx(2.0)


def test_two_jobs_below_saturation_run_in_parallel():
    """Below a_sat each PS job progresses at full speed."""
    sim = Simulator()
    server = make_server(sim, a_sat=10)
    done = []
    for i in range(2):
        req = make_request(i)
        server.admit(req, 1.0, done.append)
    sim.run()
    assert len(done) == 2
    assert sim.now == pytest.approx(1.0)


def test_jobs_beyond_saturation_share_capacity():
    """20 unit jobs on an a_sat=10 server take 2 time units."""
    sim = Simulator()
    server = make_server(sim, a_sat=10)
    done = []
    for i in range(20):
        server.admit(make_request(i), 1.0, done.append)
    sim.run()
    assert len(done) == 20
    assert sim.now == pytest.approx(2.0)


def test_unequal_demands_finish_in_demand_order():
    sim = Simulator()
    server = make_server(sim, a_sat=1)  # full PS sharing between 2 jobs
    finished = []
    server.admit(make_request(0), 1.0, lambda x: finished.append((x.req_id, sim.now)))
    server.admit(make_request(1), 2.0, lambda x: finished.append((x.req_id, sim.now)))
    sim.run()
    # job 0 finishes at t=2 (rate 1/2 each); then job 1 alone finishes
    # its remaining 1.0 at t=3.
    assert finished == [(0, pytest.approx(2.0)), (1, pytest.approx(3.0))]


def test_thread_pool_queues_admissions():
    sim = Simulator()
    server = make_server(sim, a_sat=10, threads=1)
    order = []

    def finish(r):
        order.append((r.req_id, sim.now))

    server.admit(make_request(0), 1.0, finish, release=True)
    server.admit(make_request(1), 1.0, finish, release=True)
    sim.run()
    assert order == [(0, pytest.approx(1.0)), (1, pytest.approx(2.0))]


def test_admitted_and_active_counters():
    sim = Simulator()
    server = make_server(sim, a_sat=10)
    req = make_request()
    server.admit(req, 0.0, lambda r: None)  # admitted, a zero-cost phase
    assert server.admitted == 1
    assert server.active == 0
    sim.run()
    assert server.admitted == 1  # still holds its thread
    server.work(req, 1.0, lambda r: None)
    assert server.active == 1
    sim.run()
    assert server.active == 0
    assert server.admitted == 0  # its last phase returned the thread
    assert server.is_idle


def test_blocked_requests_slow_active_ones():
    """Admitted-but-blocked requests add contention overhead."""
    sim = Simulator()
    server = make_server(sim, a_sat=10, sigma=0.1)
    blockers = [make_request(100 + i) for i in range(10)]
    for b in blockers:
        server.admit(b, 0.0, lambda r: None)  # hold threads, no work
    done_at = []
    server.admit(make_request(0), 1.0, lambda x: done_at.append(sim.now))
    sim.run()
    # penalty(11) = 1/(1+0.1*10) = 0.5 -> the unit job takes 2 time units
    assert done_at == [pytest.approx(2.0)]


def test_work_without_admit_raises():
    sim = Simulator()
    server = make_server(sim)
    with pytest.raises(SimulationError):
        server.work(make_request(), 1.0, lambda r: None)


def test_release_without_admit_raises():
    sim = Simulator()
    server = make_server(sim)
    with pytest.raises(SimulationError):
        server.release(make_request())


def test_zero_demand_completes_via_event():
    sim = Simulator()
    server = make_server(sim)
    done = []
    server.admit(make_request(), 0.0, done.append)
    assert done == []  # not synchronous
    sim.run()
    assert len(done) == 1
    assert sim.now == 0.0


def test_visit_latency_recorded_on_release():
    sim = Simulator()
    server = make_server(sim)
    req = make_request()
    server.admit(req, 1.5, lambda x: None, release=True)
    sim.run()
    assert server.completions == 1
    assert server.latency_total == pytest.approx(1.5)


def test_concurrency_integral_time_weighted():
    sim = Simulator()
    server = make_server(sim, a_sat=10)
    req = make_request()
    server.admit(req, 2.0, lambda x: None, release=True)
    sim.run()
    server.sync_monitors()
    # one request admitted for 2 time units
    assert server.concurrency_integral == pytest.approx(2.0)


def test_util_integral_accumulates():
    sim = Simulator()
    server = make_server(sim, a_sat=10)
    req = make_request()
    server.admit(req, 2.0, lambda x: None, release=True)
    sim.run()
    server.sync_monitors()
    # one active request on an a_sat=10 server => util 0.1 for 2 units
    assert server.util_integral["cpu"] == pytest.approx(0.2)


def test_many_sequential_batches_conserve_work():
    """Total served work equals total injected work across batches."""
    sim = Simulator()
    server = make_server(sim, a_sat=4)
    done = []
    for i in range(40):
        sim.schedule(i * 0.05, server.admit, make_request(i), 0.5,
                     lambda x: done.append(x.req_id), True)
    sim.run()
    assert len(done) == 40
    assert server.completions == 40
    # 40 jobs * 0.5 work at max rate 4 -> at least 5 time units
    assert sim.now >= 5.0 - 1e-9


def test_outstanding_counts_admitted_and_queued():
    """`outstanding` is the balancer's connection-count view: requests
    holding a worker thread plus requests queued for one."""
    sim = Simulator()
    server = make_server(sim, a_sat=10, threads=2)
    for i in range(5):
        req = make_request(i)
        server.admit(req, 1.0, lambda r: None, release=True)
    assert server.outstanding == 5          # 2 admitted + 3 queued
    assert server.admitted == 2
    sim.run()
    assert server.outstanding == 0
    assert server.is_idle


def test_ps_completions_identical_across_calendars():
    """The tuple-keyed completion heap plus the reschedule fast path
    must not change *when* any job finishes vs the reference heap loop."""

    def completions_on(sim):
        server = make_server(sim, a_sat=4, sigma=3e-3, kappa=2e-4)
        done = []
        for i in range(30):
            sim.schedule(i * 0.07, server.admit, make_request(i), 0.4,
                         lambda x: done.append((x.req_id, sim.now)), True)
        sim.run()
        return done, sim.events_executed

    assert completions_on(Simulator()) == completions_on(HeapSimulator())


# ----------------------------------------------------------------------
# one calendar stamp per transition
# ----------------------------------------------------------------------


def test_an_admission_adds_one_heap_entry():
    """Admitting a request to a server with a phase in progress moves
    the penalty and the active count in one transition, so it stamps
    the completion event once. (Admitting and then starting the phase
    as two steps pushed two entries: at a_sat=1 each step moves the
    per-job rate.)"""
    sim = Simulator()
    server = make_server(sim, a_sat=1, sigma=0.1)
    server.admit(make_request(0), 1.0, lambda r: None)
    sim.run(until=0.5)
    before = sim.calendar_stats()["stored"]
    server.admit(make_request(1), 1.0, lambda r: None)
    assert sim.calendar_stats()["stored"] == before + 1


def test_a_releasing_completion_leaves_no_dead_entry():
    """A last phase's completion returns the thread and re-arms the
    event for the phase still running with one stamp: one live entry
    and no dead one. (Stamping before the release left a dead entry.)"""
    sim = Simulator()
    server = make_server(sim, a_sat=10, sigma=0.1)
    seen = []
    server.admit(make_request(0), 1.0, lambda r: seen.append(server.admitted),
                 release=True)
    server.admit(make_request(1), 2.0, lambda r: None)
    sim.run(max_events=1)
    assert seen == [1]  # the thread was returned before the callback
    assert server.completions == 1
    assert sim.calendar_stats() == {"stored": 1, "dead": 0, "compactions": 0}


@pytest.mark.parametrize("releasing_first", [True, False],
                         ids=["releasing-first", "holding-first"])
def test_a_releasing_and_a_holding_phase_finishing_together(releasing_first):
    """Two phases that finish in one instant, one of them a last phase,
    in both heap orders: the same callbacks (each sees the next
    completion already pending), accumulators, occupants and pending
    completion time as the reference server."""

    def after_the_tie(server_cls):
        sim = Simulator()
        server = make_server(sim, a_sat=2, sigma=0.1, cls=server_cls)
        calls = []
        flags = (True, False) if releasing_first else (False, True)
        for i, release in enumerate(flags):
            server.admit(make_request(i), 1.0,
                         lambda r: calls.append(
                             (r.req_id, server.admitted, sim.pending_events)),
                         release=release)
        server.admit(make_request(2), 3.0, lambda r: None)
        sim.run(max_events=1)
        return (
            calls,
            sim.now,
            server.concurrency_integral,
            dict(server.util_integral),
            server.latency_total,
            server.completions,
            [r.req_id for r in server.occupants()],
            server._completion_event.time,
        )

    ours = after_the_tie(Server)
    assert len(ours[0]) == 2 and ours[5] == 1
    assert ours == after_the_tie(ReferenceServer)


def test_a_later_releasing_phase_returns_the_thread_before_its_callback():
    sim = Simulator()
    server = make_server(sim)
    seen = []

    def second(r):
        server.work(r, 1.0, lambda x: seen.append((sim.now, server.admitted)))

    server.admit(make_request(), 1.0, second)
    sim.run()
    assert seen == [(pytest.approx(2.0), 0)]
    assert server.completions == 1
    assert server.latency_total == pytest.approx(2.0)


def test_a_zero_cost_last_phase_returns_its_thread_on_the_next_tick():
    sim = Simulator()
    server = make_server(sim)
    seen = []
    server.admit(make_request(), 0.0, lambda r: seen.append(server.admitted),
                 release=True)
    assert server.admitted == 1 and seen == []
    sim.run()
    assert seen == [0]
    assert server.completions == 1 and sim.now == 0.0


def test_an_aborted_request_zero_cost_last_phase_returns_no_thread():
    """The thread of a request aborted while its zero-cost last phase is
    due went back at the abort; the phase still calls back, once."""
    sim = Simulator()
    server = make_server(sim, threads=1)
    aborted, waiting = make_request(0), make_request(1)
    done = []
    server.admit(aborted, 0.0, done.append, release=True)
    server.admit(waiting, 1.0, done.append)  # queued for the one thread
    assert server.abort(aborted)  # its thread passes to `waiting`
    sim.run()
    assert done == [aborted, waiting]
    assert server.completions == 0
    assert server.admitted == 1
