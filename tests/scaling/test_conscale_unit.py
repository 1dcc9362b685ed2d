"""Unit tests for ConScale's adaptation logic, driven by a scripted
estimator (no full simulation runs)."""

from repro.ntier.app import APP
from repro.scaling.conscale import ConScaleController
from repro.scaling.estimator import TierEstimate
from repro.sct.model import SCTEstimate

from tests.scaling.test_actuator import bootstrap_all, make_stack
from tests.scaling.test_policy import load_db


def estimate(optimal, *, saturated=True, hw=True, hot=None, q_upper=None):
    per = SCTEstimate(
        q_lower=optimal, q_upper=q_upper or optimal + 5, tp_max=100.0,
        optimal=optimal, ascending_observed=True,
        saturation_observed=saturated,
        plateau_util=0.95 if hw else 0.3, hardware_limited=hw,
        sla_met=True, n_tuples=100,
    )
    return TierEstimate(
        tier="?", time=0.0, optimal=optimal, q_upper=per.q_upper,
        saturation_observed=saturated, hardware_limited=hw and saturated,
        plateau_hot=hot if hot is not None else hw,
        per_server={"s-1": per},
    )


class ScriptedEstimator:
    def __init__(self, app_est=None, db_est=None):
        self.app_est = app_est
        self.db_est = db_est

    def estimate_tier(self, tier):
        return self.app_est if tier == APP else self.db_est


def make_controller(app_est=None, db_est=None, **kw):
    sim, app, actuator = make_stack()
    bootstrap_all(sim, actuator)
    controller = ConScaleController(
        sim, actuator.warehouse, actuator,
        estimator=ScriptedEstimator(app_est, db_est), **kw,
    )
    controller.stop()  # drive _adapt manually
    return sim, app, actuator, controller


def test_actionable_estimate_sets_headroom_target():
    sim, app, actuator, controller = make_controller(app_est=estimate(20))
    controller._adapt(force=True)
    assert actuator.factory.thread_limit(APP) == 23  # ceil(20*1.15)


def test_hysteresis_blocks_small_drift():
    sim, app, actuator, controller = make_controller(app_est=estimate(20))
    controller._adapt(force=True)
    # new estimate within 20% of current 23 -> no action without force
    controller.estimator.app_est = estimate(22)  # target 26, drift 13%
    controller._adapt(force=False)
    assert actuator.factory.thread_limit(APP) == 23
    controller._adapt(force=True)
    assert actuator.factory.thread_limit(APP) == 26


def test_clamps_apply():
    sim, app, actuator, controller = make_controller(app_est=estimate(1000))
    controller._adapt(force=True)
    assert actuator.factory.thread_limit(APP) == 400  # not ceil(1000*1.15)


def test_db_target_scales_with_topology():
    sim, app, actuator, controller = make_controller(db_est=estimate(10))
    # 1 app, 1 db: per-app conns = ceil(ceil(10*1.15) * 1 / 1) = 12
    controller._adapt(force=True)
    assert actuator.db_connections == 12


def test_relax_when_cool_and_capped():
    sim, app, actuator, controller = make_controller(app_est=estimate(20))
    controller._adapt(force=True)
    assert actuator.factory.thread_limit(APP) == 23
    # estimator goes silent; tier is idle (cpu 0) -> relax toward 60
    controller.estimator.app_est = None
    sim.run(until=5.0)  # let the warehouse sample the cool tier
    controller._adapt(force=False)
    first = actuator.factory.thread_limit(APP)
    assert 23 < first <= 60
    controller._adapt(force=False)
    assert actuator.factory.thread_limit(APP) >= first


def test_no_relax_while_hot():
    sim, app, actuator, controller = make_controller(db_est=estimate(10))
    controller._adapt(force=True)
    assert actuator.db_connections == 12
    # keep the DB hot (util ~0.9 on the a_sat=1000 test server)
    load_db(app, 900)
    sim.run(until=12.0)
    controller.estimator.db_est = None
    controller._adapt(force=False)
    assert actuator.db_connections == 12  # cap held


def test_explore_up_on_pressure():
    sim, app, actuator, controller = make_controller(
        db_est=estimate(10, saturated=False, hot=True)
    )
    # force a tight cap first
    controller.estimator.db_est = estimate(10)
    controller._adapt(force=True)
    assert actuator.db_connections == 12
    # now: unsaturated-but-hot estimate + deep conn queue -> probe up
    controller.estimator.db_est = estimate(12, saturated=False, hot=True)
    pool = app.conn_pools["app-1"]
    for _ in range(20):
        pool.acquire(object(), lambda tok: None)
    assert pool.queued >= 0.25 * pool.limit
    controller._adapt(force=False)
    assert actuator.db_connections == 15  # ceil(12 * 1.25)


def test_no_explore_without_pressure():
    sim, app, actuator, controller = make_controller(
        db_est=estimate(10)
    )
    controller._adapt(force=True)
    # keep the DB hot so the relax path is blocked too; with no queue
    # the unsaturated-but-hot estimate must NOT probe upward
    load_db(app, 900)
    sim.run(until=12.0)
    controller.estimator.db_est = estimate(12, saturated=False, hot=True)
    controller._adapt(force=False)
    assert actuator.db_connections == 12  # no queue -> no probe


def test_contaminated_estimate_not_applied():
    sim, app, actuator, controller = make_controller(
        app_est=estimate(8, hw=False)
    )
    controller._adapt(force=True)
    assert actuator.factory.thread_limit(APP) == 60  # static default kept


def test_with_headroom_math():
    sim, app, actuator, controller = make_controller()
    assert controller._with_headroom(10) == 12
    assert controller._with_headroom(20) == 23
    assert controller._with_headroom(1) == 2
    controller.headroom = 1.0
    assert controller._with_headroom(10) == 10
