"""Smoke-level behavioural tests for the figure harnesses.

Each figure function runs at a strongly reduced scale here; the full
regeneration lives in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.experiments import figures as F
from repro.sct.model import SCTEstimate, SCTModel
from repro.sct.scatter import Scatter


@pytest.fixture(scope="module")
def fig10_small():
    return F.figure10(load_scale=50, duration=400, seed=3)


def test_figure9_traces_complete():
    data = F.figure9()
    assert len(data.traces) == 6
    for name, (t, u) in data.traces.items():
        assert t[-1] == pytest.approx(700.0)
        assert u.max() > 0
    text = data.render()
    assert "big_spike" in text


def test_figure9_csv(tmp_path):
    paths = F.figure9().to_csv(str(tmp_path))
    assert len(paths) == 6


def test_figure7_qlower_shifts():
    data = F.figure7(duration=10.0)
    shifts = data.shifts()
    v_before, v_after = shifts["vertical_scaling"]
    assert v_after > 1.5 * v_before  # 10 -> 20
    d_before, d_after = shifts["dataset_size"]
    assert d_after < d_before  # enlarged dataset lowers the optimum
    w_before, w_after = shifts["workload_type"]
    assert w_after < w_before  # I/O workload lowers it drastically
    assert w_after <= 8


def test_figure3_vertical_scaling_direction():
    data = F.figure3(duration=10.0)
    q = {c.label: c.q_lower for c in data.cases}
    assert q["Tomcat 2-core"] > q["Tomcat 1-core"]
    assert q["Tomcat 2-core, 2x dataset"] < q["Tomcat 2-core"]
    assert "Q_lower" in data.render()


def test_figure6_sct_scatter():
    data = F.figure6(q_max=40, dwell=1.5)
    assert 8 <= data.estimate.q_lower <= 13
    assert data.estimate.saturation_observed
    assert len(data.scatter) > 200
    assert "SCT estimate" in data.render()


def test_figure6_bootstraps_with_the_estimate_banding(monkeypatch):
    """The interval printed under the estimate re-estimates with the
    estimate's own band width, not a fixed one."""
    data = F.figure6(q_max=24, q_step=4, dwell=1.0)
    assert data.model.bucket_width == 4
    seen = []

    def bootstrap(scatter, model=None, **kwargs):
        seen.append(model)
        raise EstimationError("interval skipped")

    monkeypatch.setattr(F, "bootstrap_q_lower", bootstrap)
    data.render()
    assert [model.bucket_width for model in seen] == [4]


@pytest.mark.parametrize("exc", [TypeError, EstimationError])
def test_figure6_render_hides_only_estimation_errors(monkeypatch, exc):
    def bootstrap(*args, **kwargs):
        raise exc("bootstrap failed")

    monkeypatch.setattr(F, "bootstrap_q_lower", bootstrap)
    estimate = SCTEstimate(
        q_lower=10, q_upper=15, tp_max=150.0, optimal=10,
        ascending_observed=True, saturation_observed=True,
        plateau_util=0.9, hardware_limited=True, sla_met=True, n_tuples=3,
    )
    qs = np.array([5.0, 10.0, 15.0])
    scatter = Scatter(q=qs, tp=10.0 * qs, rt=np.full(3, 0.01), util=np.full(3, 0.5))
    data = F.Fig6Data(server="db-1", scatter=scatter, estimate=estimate,
                      model=SCTModel(bucket_width=2))
    if exc is EstimationError:
        text = data.render()
        assert "SCT estimate" in text and "bootstrap" not in text
    else:
        with pytest.raises(TypeError):
            data.render()


def test_figure5_window_around_scale_out(fig10_small):
    data = F.figure5(load_scale=100, duration=250, seed=11)
    assert data.scale_time > 1.0  # not the bootstrap
    assert np.all(np.diff(data.times) > 0)
    assert data.concurrency.max() > 1.0


def test_figure10_conscale_beats_ec2(fig10_small):
    data = fig10_small
    assert data.conscale.tail.p95 <= data.ec2.tail.p95 * 1.1
    # the worst 5s bin must be clearly better for ConScale
    worst_ec2 = float(np.nanmax(data.ec2.p95_rt))
    worst_cs = float(np.nanmax(data.conscale.p95_rt))
    assert worst_cs < worst_ec2
    assert "conscale" in data.render()


def test_figure10_csv(fig10_small, tmp_path):
    paths = fig10_small.to_csv(str(tmp_path))
    assert len(paths) == 4


def test_figure1_has_fluctuations():
    data = F.figure1(load_scale=100, duration=250, seed=11)
    tl = data.timeline
    assert tl.framework == "ec2"
    valid = tl.p95_rt[~np.isnan(tl.p95_rt)]
    assert valid.max() > 3 * np.median(valid)  # visible spikes
    assert tl.vm_counts.max() > tl.vm_counts[0]


def test_figure11_dcm_staleness():
    data = F.figure11(load_scale=100, duration=250, seed=11)
    assert data.dcm_trained_app_threads > 0
    est = data.final_conscale_app_threads()
    # with a reduced dataset the true optimum rises above DCM's
    # trained number; ConScale's online estimate must reflect that
    assert est is not None
    assert est > data.dcm_trained_app_threads


def test_table1_structure():
    data = F.table1(
        load_scale=100, duration=200, seed=11,
        traces=("dual_phase",),
    )
    rows = data.rows()
    assert len(rows) == 1
    text = data.render()
    assert "Table I" in text
