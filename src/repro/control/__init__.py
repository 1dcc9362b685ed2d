"""The control plane's shared event fabric.

The paper's argument (Figs. 10-11) is about *decisions*: when each
framework scaled hardware, when it re-allocated soft resources, and
what evidence justified each move. This package gives every controller
one typed path for those decisions:

* :mod:`repro.control.events` — :class:`DecisionEvent` (threshold
  trips, hardware actions, cap changes with their SCT estimates, no-op
  ticks) and the decision-kind vocabulary;
* :mod:`repro.control.bus` — :class:`ControlBus`, the synchronous
  publish/subscribe hub every control-plane event travels through
  (controllers hear completed hardware changes there too);
* :mod:`repro.control.trace` — :class:`DecisionTrace`, the recorded
  event stream; serialises as plain numpy columns and powers
  ``repro diff``.
"""

from repro.control.bus import ControlBus
from repro.control.events import (
    HARDWARE_KINDS,
    NOOP,
    POLICY_KINDS,
    SOFT_KINDS,
    THRESHOLD_TRIP,
    DecisionEvent,
)
from repro.control.trace import DecisionTrace

__all__ = [
    "ControlBus",
    "DecisionEvent",
    "DecisionTrace",
    "THRESHOLD_TRIP",
    "NOOP",
    "HARDWARE_KINDS",
    "SOFT_KINDS",
    "POLICY_KINDS",
]
