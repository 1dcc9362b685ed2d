"""Cross-validation: the analytical MVA network vs the DES simulator.

With zero contention penalties (sigma = kappa = 0) the simulated 3-tier
system is a product-form closed network — PS stations with
load-dependent rates ``min(j, a_sat)`` — so exact MVA must predict the
simulator's closed-loop throughput and response time. This is a strong
mutual-correctness check: two completely independent implementations
(an event-driven PS simulator and a probabilistic recursion) must
agree.
"""

import pytest

from repro.errors import ConfigurationError
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.qnet.network import asymptotic_bounds, predict_closed_loop
from repro.rng import RngRegistry
from repro.sim.engine import Simulator
from repro.workload.generator import ClosedLoopGenerator, RequestFactory

from tests.conftest import build_app, tiny_mix

DEMANDS = {"web": 0.0005, "app": 0.002, "db": 0.005}


def pure_capacity(a_sat: float) -> CapacityModel:
    return CapacityModel(
        [Resource("cpu", 1.0, 1.0 / a_sat)], ContentionModel(0.0, 0.0)
    )


CAPACITIES = {
    "web": pure_capacity(1000.0),
    "app": pure_capacity(8.0),
    "db": pure_capacity(4.0),
}


def simulate(n: int, think: float, duration: float = 40.0, seed: int = 11):
    sim = Simulator()
    app = build_app(sim, web_a_sat=1000.0, app_a_sat=8.0, db_a_sat=4.0)
    rng = RngRegistry(seed)
    latencies = []
    app.on_complete(lambda r: latencies.append(r.response_time))
    ClosedLoopGenerator(
        sim, app, n, RequestFactory(tiny_mix(cv=0.3), rng.stream("d")),
        rng.stream("u"), think_time=think,
    ).start()
    sim.run(until=duration)
    warm = len(latencies) // 5
    x = app.completed / duration
    r = sum(latencies[warm:]) / max(1, len(latencies[warm:]))
    return x, r


@pytest.mark.parametrize("n", [2, 6, 12, 30])
def test_mva_matches_simulator_zero_think(n):
    prediction = predict_closed_loop(CAPACITIES, DEMANDS, n_max=n)
    x_mva, r_mva = prediction.result.at(n)
    x_sim, r_sim = simulate(n, think=0.0)
    assert x_sim == pytest.approx(x_mva, rel=0.05), (
        f"n={n}: sim X={x_sim:.1f}/s vs MVA {x_mva:.1f}/s"
    )
    assert r_sim == pytest.approx(r_mva, rel=0.08), (
        f"n={n}: sim R={r_sim * 1000:.2f}ms vs MVA {r_mva * 1000:.2f}ms"
    )


def test_mva_matches_simulator_with_think_time():
    n, think = 40, 0.05
    prediction = predict_closed_loop(CAPACITIES, DEMANDS, n_max=n, think_time=think)
    x_mva, r_mva = prediction.result.at(n)
    x_sim, r_sim = simulate(n, think=think, duration=60.0)
    assert x_sim == pytest.approx(x_mva, rel=0.05)
    assert r_sim == pytest.approx(r_mva, rel=0.10)


@pytest.mark.parametrize("think", [float("nan"), float("inf"), -5.0])
def test_prediction_refuses_bad_think_time(think):
    with pytest.raises(ConfigurationError, match="think_time must be finite and >= 0"):
        predict_closed_loop(CAPACITIES, DEMANDS, n_max=5, think_time=think)


def test_bottleneck_identification():
    prediction = predict_closed_loop(CAPACITIES, DEMANDS, n_max=5)
    # db: a_sat 4 / 5ms = 800/s; app: 8 / 2ms = 4000/s -> db bottleneck
    assert prediction.bottleneck == "db"
    assert prediction.peak_throughput == pytest.approx(800.0)


def test_throughput_approaches_bottleneck_capacity():
    prediction = predict_closed_loop(CAPACITIES, DEMANDS, n_max=80)
    x, _ = prediction.result.at(80)
    assert x == pytest.approx(800.0, rel=0.01)


def test_asymptotic_bounds_hold():
    prediction = predict_closed_loop(CAPACITIES, DEMANDS, n_max=50)
    for n in (1, 5, 20, 50):
        light, heavy = asymptotic_bounds(DEMANDS, CAPACITIES, n)
        x, _ = prediction.result.at(n)
        assert x <= min(light, heavy) * (1 + 1e-9)


def test_key_mismatch_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        predict_closed_loop(CAPACITIES, {"web": 0.001}, n_max=5)
