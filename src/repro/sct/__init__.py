"""The Scatter-Concurrency-Throughput (SCT) model — the paper's core.

Given fine-grained per-interval tuples ``{Q, TP, RT}`` of one server
(from :mod:`repro.monitoring`), the model

1. takes them as a columnar scatter without the idle intervals
   (:mod:`~repro.sct.scatter`),
2. groups the scatter into concurrency bands, with the per-band
   statistics as numpy reductions over contiguous slices
   (:mod:`~repro.sct.grouping`),
3. locates the maximum-throughput plateau with statistical
   intervention analysis on those statistics
   (:mod:`~repro.sct.intervention`),
4. reports the rational concurrency range ``[Q_lower, Q_upper]`` and
   recommends ``Q_lower`` — the minimum concurrency achieving maximum
   throughput, hence also minimum response time within the range —
   as the optimal soft-resource allocation
   (:mod:`~repro.sct.model`).
"""

from repro.sct.bootstrap import QLowerInterval, bootstrap_q_lower
from repro.sct.drift import DriftReport, detect_drift
from repro.sct.grouping import ConcurrencyBands, band_representative, bucketize
from repro.sct.intervention import welch_moments_pvalue, welch_t_pvalue
from repro.sct.model import SCTEstimate, SCTModel
from repro.sct.scatter import Scatter

__all__ = [
    "ConcurrencyBands",
    "band_representative",
    "bucketize",
    "QLowerInterval",
    "bootstrap_q_lower",
    "DriftReport",
    "detect_drift",
    "welch_moments_pvalue",
    "welch_t_pvalue",
    "SCTEstimate",
    "SCTModel",
    "Scatter",
]
