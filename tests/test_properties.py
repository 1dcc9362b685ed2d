"""Property-based tests (hypothesis) on core data structures and
invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.percentiles import tail_summary
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.pools import FifoPool
from repro.rng import RngRegistry
from repro.sct.grouping import band_representative, bucketize
from repro.sct.intervention import welch_t_pvalue
from repro.sct.scatter import Scatter
from repro.sim.engine import Simulator
from repro.workload.trace import Trace


# ----------------------------------------------------------------------
# FIFO pool invariants under arbitrary acquire/release/resize sequences
# ----------------------------------------------------------------------

@st.composite
def pool_programs(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.just(("acquire",)),
                st.just(("release",)),
                st.tuples(st.just("resize"), st.integers(1, 10)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return ops


@given(pool_programs())
@settings(max_examples=200, deadline=None)
def test_pool_invariants(ops):
    pool = FifoPool("p", 3)
    granted: list[int] = []
    queued_tokens: list[int] = []
    next_token = 0
    for op in ops:
        if op[0] == "acquire":
            token = next_token
            next_token += 1
            queued_tokens.append(token)
            pool.acquire(token, granted.append)
        elif op[0] == "release":
            if pool.in_use > 0:
                pool.release()
        else:
            pool.resize(op[1])
        # invariants after every step
        assert pool.in_use >= 0
        assert pool.queued >= 0
        # grants never exceed the number of acquires
        assert len(granted) <= next_token
        # over-subscription only via shrink: in_use <= historical max limit
        assert pool.in_use <= 10 + 3
        # FIFO: grants happen in token order
        assert granted == sorted(granted)
    # accounting: grants + still-queued == total acquires
    assert len(granted) + pool.queued == next_token


# ----------------------------------------------------------------------
# capacity model properties
# ----------------------------------------------------------------------

@given(
    a_sat=st.floats(1.0, 100.0),
    sigma=st.floats(0.0, 0.05),
    kappa=st.floats(0.0, 1e-3),
    active=st.floats(0.0, 500.0),
    admitted_extra=st.floats(0.0, 500.0),
)
@settings(max_examples=200, deadline=None)
def test_capacity_work_rate_bounds(a_sat, sigma, kappa, active, admitted_extra):
    m = CapacityModel(
        [Resource("cpu", 1.0, 1.0 / a_sat)], ContentionModel(sigma, kappa)
    )
    rate = m.work_rate(active, active + admitted_extra)
    assert 0.0 <= rate <= min(active, a_sat) + 1e-9
    # more admitted never speeds things up
    assert rate <= m.work_rate(active, active) + 1e-9


@given(
    a_sat=st.floats(2.0, 50.0),
    kappa=st.floats(1e-6, 1e-3),
)
@settings(max_examples=100, deadline=None)
def test_throughput_curve_is_unimodal(a_sat, kappa):
    m = CapacityModel(
        [Resource("cpu", 1.0, 1.0 / a_sat)], ContentionModel(0.001, kappa)
    )
    tps = [m.throughput(q, 0.01) for q in range(1, 200)]
    peak = int(np.argmax(tps))
    # rising (non-strictly) before the peak, falling after
    for i in range(peak):
        assert tps[i] <= tps[i + 1] + 1e-9
    for i in range(peak, len(tps) - 1):
        assert tps[i] >= tps[i + 1] - 1e-9


# ----------------------------------------------------------------------
# banding / bucketing
# ----------------------------------------------------------------------

@given(st.integers(1, 10_000))
def test_band_representative_stable(q):
    rep = band_representative(q)
    assert rep >= 1
    # idempotent-ish: the representative maps into its own band
    assert band_representative(rep) == rep or abs(band_representative(rep) - rep) <= max(2, int(0.15 * rep))


@given(st.lists(st.floats(0.5, 200.0), min_size=1, max_size=200))
def test_bucketize_conserves_samples(qs):
    ones = np.ones(len(qs))
    bands = bucketize(Scatter(np.array(qs), ones, ones, ones), min_samples=1)
    assert sum(b - a for a, b in zip(bands.start, bands.stop)) == len(qs)


# ----------------------------------------------------------------------
# Welch test properties
# ----------------------------------------------------------------------

@given(
    st.lists(st.floats(1.0, 100.0), min_size=2, max_size=30),
    st.lists(st.floats(1.0, 100.0), min_size=2, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_welch_pvalue_in_unit_interval(a, b):
    p = welch_t_pvalue(a, b)
    assert 0.0 <= p <= 1.0


@given(st.lists(st.floats(1.0, 100.0), min_size=3, max_size=30))
@settings(max_examples=100, deadline=None)
def test_welch_self_comparison_large_p(a):
    assert welch_t_pvalue(a, a) >= 0.49


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

@given(st.lists(st.floats(0.001, 1e4), min_size=1, max_size=500))
def test_tail_summary_ordering(values):
    t = tail_summary(values)
    assert t.p50 <= t.p95 + 1e-9
    assert t.p95 <= t.p99 + 1e-9
    assert t.p99 <= t.max + 1e-9
    # ulp-level tolerance: np.mean of identical values can differ in
    # the last bit from the values themselves
    tol = 1e-9 * max(abs(t.max), 1.0)
    assert min(values) - tol <= t.mean <= t.max + tol


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------

@given(
    knots=st.lists(st.floats(0.1, 1000.0), min_size=2, max_size=30),
    query=st.floats(-10.0, 2000.0),
)
def test_trace_interpolation_within_bounds(knots, query):
    times = np.cumsum(np.asarray(knots))
    times = np.concatenate([[0.0], times])
    users = np.abs(np.sin(times)) * 100.0
    trace = Trace("t", times, users)
    value = trace.users_at(query)
    assert users.min() - 1e-9 <= value <= users.max() + 1e-9


# ----------------------------------------------------------------------
# engine determinism
# ----------------------------------------------------------------------

@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
def test_engine_executes_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule(t, fired.append, t)
    sim.run()
    assert fired == sorted(times)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50)
def test_rng_streams_reproducible(seed):
    a = RngRegistry(seed).stream("x").random(3)
    b = RngRegistry(seed).stream("x").random(3)
    assert list(a) == list(b)
