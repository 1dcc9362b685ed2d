"""Microbenchmarks of the simulation substrate itself.

These are conventional pytest-benchmark timings (many rounds) of the
hot paths that determine how large an evaluation run the harness can
afford: the event calendar, the PS server, and the SCT estimation.

Nothing here writes or checks a baseline. The calendar's guards are the
end-to-end workloads in ``BENCHMARK.json`` (``wall_s``, and
``sim.calendar.self_s`` per layer) and the exact call count in
``tests/ntier/test_call_budget.py``; ``benchmarks/BENCH_core.json``
holds only the hybrid speed-up that ``perf_smoke.py`` guards.
"""

import numpy as np
import pytest

from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sct.model import SCTModel
from repro.sct.scatter import Scatter
from repro.sim.engine import Simulator


def test_engine_event_throughput(benchmark):
    """Schedule+run cost of 10k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule_after(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 10_000


#: One-resource CPU-bound DB, and the I/O-bound case with CPU and disk:
#: every clock advance accrues busy time for each resource.
PS_CAPACITIES = {
    "cpu": [Resource("cpu", 1.0, 0.1)],
    "cpu+disk": [Resource("cpu", 1.0, 0.04), Resource("disk", 1.0, 0.1)],
}


@pytest.mark.parametrize("resources", sorted(PS_CAPACITIES))
def test_ps_server_churn(benchmark, resources):
    """Admission-and-phase then release cycles through a contended PS
    server."""
    capacity = CapacityModel(
        PS_CAPACITIES[resources], ContentionModel(3e-3, 2e-4)
    )

    def run():
        sim = Simulator()
        server = Server(sim, ServerConfig("db-1", "db", capacity, 100))
        for i in range(2_000):
            sim.schedule(i * 0.0005, server.admit,
                         Request(i, "X", 0.0, {"db": 0.01}), 0.01,
                         lambda r: None, True)
        sim.run()
        return server.completions

    assert benchmark(run) == 2_000


def test_sct_estimation_cost(benchmark):
    """One SCT estimate over a realistic window of tuples."""
    rng = np.random.default_rng(0)
    q = np.repeat(np.arange(1.0, 60.0), 12)
    tp = 100.0 * np.minimum(q, 10) / 10 / (1 + 2e-4 * q * (q - 1))
    scatter = Scatter(
        q=q,
        tp=tp * (1 + rng.normal(0, 0.05, q.size)),
        rt=np.full(q.size, 0.01),
        util=np.minimum(1.0, q / 10),
    )
    model = SCTModel()

    est = benchmark(model.estimate, scatter)
    assert 8 <= est.q_lower <= 13
