"""Validation against closed-form queueing theory.

These tests anchor the simulator to exact results:

* **M/G/1-PS**: with Poisson arrivals (rate lambda) at a processor-
  sharing server of capacity 1 and mean demand d (utilisation
  rho = lambda*d < 1), the mean response time is E[T] = d / (1 - rho) —
  famously *insensitive* to the demand distribution beyond its mean.
* **Closed-loop asymptotes**: with N customers and zero think time,
  throughput approaches min(N/d_total, 1/d_bottleneck) (balanced-job
  bounds), and response time approaches N * d_bottleneck at high N.
* **Little's law** holds on every run.
"""

import numpy as np
import pytest

from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.rng import RngRegistry
from repro.sim.engine import Simulator


def run_mg1_ps(lam: float, mean_demand: float, cv: float, duration: float,
               seed: int = 0):
    """Poisson arrivals into a capacity-1 PS server; returns latencies."""
    sim = Simulator()
    capacity = CapacityModel([Resource("cpu", 1.0, 1.0)], ContentionModel())
    server = Server(sim, ServerConfig("s", "db", capacity, 10_000_000))
    rng = RngRegistry(seed)
    arrivals = rng.stream("arrivals")
    demands = rng.stream("demands")
    latencies: list[float] = []
    counter = {"n": 0}

    def draw_demand() -> float:
        if cv == 0.0:
            return mean_demand
        shape = 1.0 / (cv * cv)
        return float(demands.gamma(shape, mean_demand / shape))

    def arrive() -> None:
        start = sim.now
        req = Request(counter["n"], "X", start, {"db": 1.0})
        counter["n"] += 1

        def done(r):
            latencies.append(sim.now - start)

        server.admit(req, draw_demand(), done, release=True)
        if sim.now < duration:
            sim.schedule_after(float(arrivals.exponential(1.0 / lam)), arrive)

    sim.schedule(float(arrivals.exponential(1.0 / lam)), arrive)
    sim.run(until=duration * 1.5)
    return np.asarray(latencies)


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_mg1_ps_mean_response_time_exponential(rho):
    d = 0.01
    lat = run_mg1_ps(lam=rho / d, mean_demand=d, cv=1.0, duration=400.0)
    expected = d / (1.0 - rho)
    measured = lat[len(lat) // 5 :].mean()  # skip warm-up
    assert measured == pytest.approx(expected, rel=0.08), (
        f"rho={rho}: E[T] measured {measured * 1000:.2f} ms vs "
        f"theory {expected * 1000:.2f} ms"
    )


def test_mg1_ps_insensitivity_to_demand_distribution():
    """PS mean RT depends only on the mean demand, not its CV."""
    d, rho = 0.01, 0.7
    results = {}
    for cv in (0.0, 0.5, 1.0, 2.0):
        lat = run_mg1_ps(lam=rho / d, mean_demand=d, cv=cv, duration=300.0,
                         seed=int(cv * 10))
        results[cv] = lat[len(lat) // 5 :].mean()
    expected = d / (1.0 - rho)
    for cv, measured in results.items():
        assert measured == pytest.approx(expected, rel=0.12), (
            f"cv={cv}: {measured * 1000:.2f} ms vs {expected * 1000:.2f} ms"
        )


def test_littles_law_on_open_run():
    d, rho = 0.01, 0.6
    sim = Simulator()
    capacity = CapacityModel([Resource("cpu", 1.0, 1.0)], ContentionModel())
    server = Server(sim, ServerConfig("s", "db", capacity, 10_000_000))
    rng = RngRegistry(1)
    arrivals = rng.stream("a")
    latencies = []
    counter = {"n": 0}

    def arrive():
        req = Request(counter["n"], "X", sim.now, {"db": 1.0})
        counter["n"] += 1
        start = sim.now

        def done(r):
            latencies.append(sim.now - start)

        server.admit(req, d, done, release=True)
        if sim.now < 200.0:
            sim.schedule_after(float(arrivals.exponential(d / rho)), arrive)

    sim.schedule(0.0, arrive)
    sim.run(until=300.0)
    server.sync_monitors()
    # L = lambda * W  (time-weighted mean concurrency vs. rate * mean RT)
    mean_l = server.concurrency_integral / sim.now
    lam_measured = server.completions / sim.now
    mean_w = float(np.mean(latencies))
    assert mean_l == pytest.approx(lam_measured * mean_w, rel=0.02)


def test_closed_loop_throughput_bounds():
    """Balanced-job bounds: X(N) <= min(N/d_total, capacity)."""
    from repro.workload.generator import ClosedLoopGenerator, RequestFactory
    from tests.conftest import build_app, tiny_mix

    d_total = 0.0075  # tiny_mix demands sum
    d_db = 0.005
    for n in (1, 2, 5, 20, 60):
        sim = Simulator()
        app = build_app(sim, db_a_sat=1.0)  # db capacity = 1/d_db = 200/s
        rng = RngRegistry(n)
        gen = ClosedLoopGenerator(
            sim, app,
            n,
            RequestFactory(tiny_mix(cv=0.0), rng.stream("d")),
            rng.stream("u"),
            think_time=0.0,
        )
        gen.start()
        sim.run(until=20.0)
        x = app.completed / 20.0
        bound = min(n / d_total, 1.0 / d_db)
        assert x <= bound * 1.02
        # and the bound is approached: within 25% for the extremes
        if n == 1 or n >= 20:
            assert x >= 0.75 * bound


def test_closed_loop_high_n_response_time_asymptote():
    """At high N, RT ~ N * d_bottleneck (all time spent queueing)."""
    from repro.workload.generator import ClosedLoopGenerator, RequestFactory
    from tests.conftest import build_app, tiny_mix

    n, d_db = 80, 0.005
    sim = Simulator()
    app = build_app(sim, db_a_sat=1.0)
    rng = RngRegistry(7)
    latencies = []
    app.on_complete(lambda r: latencies.append(r.response_time))
    ClosedLoopGenerator(
        sim, app, n, RequestFactory(tiny_mix(cv=0.0), rng.stream("d")),
        rng.stream("u"), think_time=0.0,
    ).start()
    sim.run(until=30.0)
    steady = np.mean(latencies[len(latencies) // 2 :])
    assert steady == pytest.approx(n * d_db, rel=0.10)
