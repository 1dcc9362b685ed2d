"""Microbenchmarks of the simulation substrate itself.

These are conventional pytest-benchmark timings (many rounds) of the
hot paths that determine how large an evaluation run the harness can
afford: the event calendar, the PS server, and the SCT estimation.

The calendar suite (``test_calendar_*``) drives the shared
:mod:`core_workloads` — chained dispatch and PS-style reschedule churn
over a large standing backlog — through both engines (the wheel and
the preserved pre-overhaul legacy loop), then
``test_wheel_beats_legacy`` checks the measured events/sec ordering.
Nothing here writes a baseline: ``benchmarks/BENCH_core.json`` is
written only by ``python benchmarks/perf_smoke.py --record`` (its
``fluid`` section by ``--record-fluid``), and the CI perf smoke guards
against it.
"""

import gc
import os

import numpy as np
import pytest

from core_workloads import ENGINES, WORKLOADS
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.sct.model import SCTModel
from repro.sct.scatter import Scatter
from repro.sim.engine import Simulator

#: Timed rounds per calendar bench (best-of is what gets recorded).
CORE_ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_CORE_ROUNDS", "3")))

#: events/sec per (workload, engine), filled by the calendar benches and
#: consumed by the wheel-vs-legacy check at the end of the module.
_CORE_RATES: dict[tuple[str, str], tuple[int, float]] = {}


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
    """Admit/work/release cycles through a contended PS server."""
    capacity = CapacityModel(
        PS_CAPACITIES[resources], ContentionModel(3e-3, 2e-4)
    )

    def run():
        sim = Simulator()
        server = Server(sim, ServerConfig("db-1", "db", capacity, 100))

        def flow(r):
            server.work(r, 0.01, lambda x: server.release(x))

        for i in range(2_000):
            sim.schedule(i * 0.0005, server.admit,
                         Request(i, "X", 0.0, {"db": 0.01}), flow)
        sim.run()
        return server.completions

    assert benchmark(run) == 2_000


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_calendar_workload_throughput(benchmark, workload, engine):
    """Events/sec of one engine on one core workload.

    The staged workload runs exactly once per round: ``setup`` rebuilds
    the backlog-loaded simulator outside the timer, the timed thunk
    dispatches it. Covers the chained-event benchmark and the
    calendar-churn benchmark across the wheel and legacy engines.
    """
    prep = WORKLOADS[workload]

    def setup():
        staged = prep(engine)
        gc.collect()
        return (staged,), {}

    n = benchmark.pedantic(
        lambda staged: staged(), setup=setup, rounds=CORE_ROUNDS, iterations=1
    )
    assert n > 0
    rate = n / benchmark.stats.stats.min
    _CORE_RATES[(workload, engine)] = (n, rate)
    benchmark.extra_info["events_per_sec"] = round(rate)


def test_wheel_beats_legacy():
    """The wheel must beat the legacy engine on both workloads (the >= 5x
    claim itself is recorded in ``benchmarks/BENCH_core.json`` rather
    than asserted, so a noisy CI runner cannot turn a measurement into a
    flake).
    """
    expected = len(ENGINES) * len(WORKLOADS)
    if len(_CORE_RATES) < expected:
        pytest.skip("calendar throughput benches did not all run")
    for name in sorted(WORKLOADS):
        wheel = _CORE_RATES[(name, "wheel")][1]
        legacy = _CORE_RATES[(name, "legacy")][1]
        speedup = wheel / legacy
        print(f"calendar {name}: wheel={wheel:.0f}/s legacy={legacy:.0f}/s "
              f"speedup={speedup:.2f}x")
        assert speedup > 1.0, f"wheel slower than legacy on {name}"


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
