#!/usr/bin/env python
"""Watch the SCT model estimate a server's optimal concurrency online.

Builds a single bottleneck MySQL behind generous upstream tiers, drives
it with a saturated closed-loop population while the DB connection cap
ramps upward, and re-runs the SCT estimation every few seconds of
simulated time — printing how the rational concurrency range
``[Q_lower, Q_upper]`` sharpens as evidence accumulates:

* while only the ascending stage has been seen, the estimate is
  flagged ``unsaturated`` (ConScale would refuse to actuate on it);
* once the plateau and descending stage appear, the estimate locks
  onto the server's true optimum (saturation concurrency 10).

Usage:
    python examples/sct_live_estimation.py
"""

from repro.errors import EstimationError
from repro.experiments.calibration import Calibration, db_capacity_cpu
from repro.experiments.sweep import cap_ramp_scatter
from repro.sct.model import SCTModel
from repro.sct.scatter import Scatter
from repro.workload.mixes import browse_only_mix


def main() -> None:
    cal = Calibration()
    mix = browse_only_mix(cal.base_demands)
    capacity = db_capacity_cpu(cores=1.0)
    print(f"target server: 1-core MySQL, true saturation concurrency = "
          f"{capacity.saturation_concurrency:.0f}\n")

    samples, server = cap_ramp_scatter(
        capacity, mix, q_max=60, q_step=2, dwell=2.0, seed=7
    )
    model = SCTModel(bucket_width=2)

    print(f"{'sim time':>9}  {'tuples':>7}  estimate")
    print("-" * 64)
    horizon = 0.0
    step = 10.0
    while True:
        horizon += step
        # the samples collected by `horizon` (t_end only grows)
        window = samples[: int((samples.t_end <= horizon).sum())]
        if len(window) == len(samples):
            break
        scatter = Scatter.from_window(window)
        try:
            est = model.estimate(scatter)
            print(f"{horizon:8.0f}s  {len(scatter):7d}  {est.describe()}")
        except EstimationError as exc:
            print(f"{horizon:8.0f}s  {len(scatter):7d}  (no estimate: {exc})")

    final = model.estimate(Scatter.from_window(samples))
    print("-" * 64)
    print(f"final estimate on {server}: {final.describe()}")
    print(f"recommended soft-resource allocation: {final.optimal} "
          f"(paper's 1-core MySQL: 10)")


if __name__ == "__main__":
    main()
