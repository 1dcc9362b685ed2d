"""Tests for traces and the six bursty shapes."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workload.shapes import TRACE_NAMES, make_trace
from repro.workload.trace import Trace


# ----------------------------------------------------------------------
# Trace basics
# ----------------------------------------------------------------------

def test_trace_validation():
    with pytest.raises(TraceError):
        Trace("t", [0.0], [1.0])  # too short
    with pytest.raises(TraceError):
        Trace("t", [0.0, 0.0], [1.0, 2.0])  # non-increasing
    with pytest.raises(TraceError):
        Trace("t", [0.0, 1.0], [1.0, -2.0])  # negative users
    with pytest.raises(TraceError):
        Trace("t", [1.0, 2.0], [1.0, 2.0])  # must start at 0
    with pytest.raises(TraceError):
        Trace("t", [0.0, np.nan, 2.0], [1.0, 2.0, 3.0])  # a NaN knot
    for bad in (np.inf, np.nan):
        with pytest.raises(TraceError, match="finite"):
            Trace("t", [0.0, 5.0, bad], [10.0, 20.0, 30.0])  # a non-finite last knot
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(TraceError, match="finite"):
            Trace("t", [0.0, 1.0], [1.0, bad])  # a non-finite user count


def test_users_at_interpolates_linearly():
    tr = Trace("t", [0.0, 10.0], [0.0, 100.0])
    assert tr.users_at(5.0) == pytest.approx(50.0)
    assert tr.users_at(-1.0) == 0.0  # clamped
    assert tr.users_at(20.0) == 100.0  # clamped


def _random_trace(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Knots with tiny, ordinary and huge gaps, and user counts that
    hold flat, drop to zero, or are infinite or NaN (which the
    validation refuses)."""
    gaps = rng.choice([1e-9, 1.0, 1e6, float(rng.exponential(5.0))],
                      size=int(rng.integers(1, 12)))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    times = times[np.concatenate([[True], np.diff(times) > 0])]
    users = rng.choice([0.0, 5.0, float(rng.uniform(0.0, 1e4)), np.inf, np.nan],
                       size=times.size,
                       p=[0.2, 0.2, 0.5, 0.05, 0.05])
    return times, users


@pytest.mark.parametrize("seed", range(4))
def test_users_at_matches_np_interp_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        times, users = _random_trace(rng)
        if times.size < 2:
            continue
        # Drawn before the finiteness check so that every trace takes
        # the same numbers from rng whether or not it is refused.
        points = np.concatenate([
            times,
            np.nextafter(times, np.inf),
            np.nextafter(times, -np.inf),
            (times[:-1] + times[1:]) / 2.0,
            rng.uniform(-1.0, times[-1] * 1.1, size=200),
            [-1.0, -0.0, times[-1] + 1.0, 2.0 * times[-1] + 1.0,
             np.inf, -np.inf, np.nan],
        ])
        if not np.all(np.isfinite(users)):
            with pytest.raises(TraceError):
                Trace("t", times, users)
            continue
        trace = Trace("t", times, users)
        for t in points.tolist():
            got = trace.users_at(t)
            want = float(np.interp(t, times, users))
            assert type(got) is float
            if want != want:
                assert got != got, (t, times, users)
            else:
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
                    t, times, users,
                )


def test_trace_knots_are_read_only_copies():
    times = np.array([0.0, 5.0, 10.0])
    users = np.array([1.0, 3.0, 2.0])
    trace = Trace("t", times, users)
    with pytest.raises(ValueError):
        trace.times[1] = 6.0
    with pytest.raises(ValueError):
        trace.users[1] = 4.0
    times[1] = 6.0  # the caller's arrays stay writable and apart
    assert trace.times[1] == 5.0 and trace.users_at(5.0) == 3.0
    assert type(trace.duration) is float


def test_duration_and_max_users():
    tr = Trace("t", [0.0, 5.0, 10.0], [10.0, 80.0, 20.0])
    assert tr.duration == 10.0
    assert tr.max_users == 80.0


def test_sample_grid():
    tr = Trace("t", [0.0, 10.0], [0.0, 10.0])
    grid, users = tr.sample(2.5)
    assert list(grid) == [0.0, 2.5, 5.0, 7.5, 10.0]
    assert users[2] == pytest.approx(5.0)
    with pytest.raises(TraceError):
        tr.sample(0.0)


def test_scaled():
    tr = Trace("t", [0.0, 10.0], [0.0, 100.0])
    s = tr.scaled(user_factor=0.5, time_factor=2.0)
    assert s.duration == 20.0
    assert s.max_users == 50.0
    with pytest.raises(TraceError):
        tr.scaled(user_factor=0.0)


def test_truncated():
    tr = Trace("t", [0.0, 10.0, 20.0], [0.0, 100.0, 0.0])
    cut = tr.truncated(15.0)
    assert cut.duration == 15.0
    assert cut.users_at(15.0) == pytest.approx(50.0)
    assert tr.truncated(100.0) is tr
    with pytest.raises(TraceError):
        tr.truncated(0.0)


# ----------------------------------------------------------------------
# the six shapes
# ----------------------------------------------------------------------

def test_six_trace_names():
    assert set(TRACE_NAMES) == {
        "large_variations", "quickly_varying", "slowly_varying",
        "big_spike", "dual_phase", "steep_tri_phase",
    }


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_shape_basics(name):
    tr = make_trace(name, max_users=7500, duration=700)
    assert tr.duration == pytest.approx(700.0)
    assert tr.max_users <= 7500.0 + 1e-9
    assert tr.max_users >= 0.7 * 7500.0  # bursts reach near peak
    assert tr.users.min() >= 0.02 * 7500.0 - 1e-9


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_shapes_start_below_single_server_capacity(name):
    """Runs must start within the 1/1/1 topology's capacity so the
    initial spike is a scaling phenomenon, not a day-0 overload."""
    tr = make_trace(name, max_users=7500, duration=700)
    assert tr.users_at(0.0) <= 0.25 * 7500.0


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_shapes_are_deterministic(name):
    a = make_trace(name)
    b = make_trace(name)
    assert np.array_equal(a.users, b.users)


def test_big_spike_has_single_burst():
    tr = make_trace("big_spike", 1000, 700)
    above = tr.users > 0.8 * tr.max_users
    # a contiguous block around 42% of the run
    idx = np.where(above)[0]
    assert idx.size > 0
    assert idx[-1] - idx[0] == idx.size - 1  # contiguous


def test_dual_phase_levels():
    tr = make_trace("dual_phase", 1000, 700)
    early = tr.users_at(100.0)
    late = tr.users_at(600.0)
    assert late > 2.0 * early


def test_tri_phase_monotone_steps():
    tr = make_trace("steep_tri_phase", 1000, 700)
    l1, l2, l3 = tr.users_at(80.0), tr.users_at(350.0), tr.users_at(620.0)
    assert l1 < l2 < l3


def test_unknown_trace_raises():
    with pytest.raises(TraceError):
        make_trace("nonexistent")


# ----------------------------------------------------------------------
# CSV round-trip
# ----------------------------------------------------------------------

def test_trace_csv_roundtrip(tmp_path):
    tr = make_trace("big_spike", 1000, 700)
    path = tr.to_csv(str(tmp_path / "sub" / "spike.csv"))
    back = Trace.from_csv(path)
    assert back.name == "spike"
    assert np.allclose(back.times, tr.times)
    assert np.allclose(back.users, tr.users)


def test_trace_from_csv_skips_header_and_names(tmp_path):
    path = tmp_path / "mytrace.csv"
    path.write_text("t_s,users\n0,100\n10,300\n20,50\n")
    tr = Trace.from_csv(str(path))
    assert tr.name == "mytrace"
    assert tr.users_at(5.0) == pytest.approx(200.0)


def test_trace_from_csv_custom_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,1\n5,2\n")
    assert Trace.from_csv(str(path), name="prod").name == "prod"


def test_trace_from_csv_errors(tmp_path):
    with pytest.raises(TraceError):
        Trace.from_csv(str(tmp_path / "missing.csv"))
    empty = tmp_path / "empty.csv"
    empty.write_text("t_s,users\n")
    with pytest.raises(TraceError):
        Trace.from_csv(str(empty))


def test_trace_from_csv_refuses_non_finite_users(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,users\n0,100\n5,inf\n10,nan\n")
    with pytest.raises(TraceError, match="finite"):
        Trace.from_csv(str(path))


def test_trace_from_csv_refuses_non_finite_times(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,users\n0,10\n5,20\ninf,30\n")
    with pytest.raises(TraceError, match="finite"):
        Trace.from_csv(str(path))


def test_runner_accepts_csv_trace(tmp_path):
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import ScenarioConfig

    path = tmp_path / "flat.csv"
    # 150s of constant 2,000 users (divided by load scale below)
    path.write_text("t_s,users\n0,2000\n150,2000\n")
    config = ScenarioConfig(
        name="csv", trace_name=str(path), load_scale=100.0, duration=150.0,
        seed=5,
    )
    result = run_experiment("ec2", config)
    assert result.completed > 500
