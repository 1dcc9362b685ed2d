"""Closed queueing-network models (Mean Value Analysis).

The paper's DCM baseline ([10]) derives its optimal concurrency
settings from an *offline queueing network model*. This package
implements that substrate exactly:

* :mod:`~repro.qnet.mva` — exact MVA for product-form closed networks,
  including **load-dependent** stations (Reiser's algorithm), which is
  what a processor-sharing server with the three-stage capacity curve
  is: a station whose service rate multiplier is
  ``min(j, a_sat) * penalty(j)``.
* :mod:`~repro.qnet.network` — builders mapping the simulator's tier
  calibration onto an analytical network, plus asymptotic bounds.

Because PS stations with queue-length-dependent rates are BCMP
product-form compatible, the analytical predictions match the
discrete-event simulator's closed-loop steady state — a strong mutual
validation exercised in ``tests/qnet``.
"""

from repro.qnet.mva import DelayStation, LDStation, MvaResult, QueueingStation, solve_mva
from repro.qnet.network import (
    asymptotic_bounds,
    predict_closed_loop,
    station_from_capacity,
)

__all__ = [
    "DelayStation",
    "LDStation",
    "MvaResult",
    "QueueingStation",
    "solve_mva",
    "asymptotic_bounds",
    "predict_closed_loop",
    "station_from_capacity",
]
