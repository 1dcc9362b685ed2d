"""The n-tier web-application substrate.

This package simulates the RUBBoS-style 3-tier system the paper runs on
real hardware: processor-sharing servers with concurrency-dependent
capacity (:mod:`~repro.ntier.server`, :mod:`~repro.ntier.capacity`),
resizable thread/connection pools (:mod:`~repro.ntier.pools`),
load-balanced tiers (:mod:`~repro.ntier.tier`,
:mod:`~repro.ntier.balancer`) and the synchronous-RPC request flow that
couples them (:mod:`~repro.ntier.app`).
"""

from repro.ntier.app import NTierApplication, SoftResourceAllocation
from repro.ntier.balancer import LeastConnBalancer, RoundRobinBalancer, make_balancer
from repro.ntier.capacity import CapacityModel, ContentionModel, Resource
from repro.ntier.demand import DemandProfile, TierDemand
from repro.ntier.pools import FifoPool
from repro.ntier.request import Request
from repro.ntier.server import Server, ServerConfig
from repro.ntier.tier import Tier

__all__ = [
    "NTierApplication",
    "SoftResourceAllocation",
    "LeastConnBalancer",
    "RoundRobinBalancer",
    "make_balancer",
    "CapacityModel",
    "ContentionModel",
    "Resource",
    "DemandProfile",
    "TierDemand",
    "FifoPool",
    "Request",
    "Server",
    "ServerConfig",
    "Tier",
]
