"""Spec-addressed runs and serializable run artifacts.

Two halves of the experiment engine's data model live here:

* :class:`RunSpec` — a frozen, hashable description of one evaluation
  run (framework + :class:`~repro.experiments.scenarios.ScenarioConfig`
  + overrides). A spec has a *canonical content digest*: a SHA-256 over
  a canonical encoding of every field, stable across processes and
  sessions, which keys the on-disk result cache.
* :class:`RunArtifact` — the outcome of one run with every series
  extracted into plain numpy arrays (request log arrays, fine-grained
  interval samples, VM/CPU timelines, SCT estimate histories). It
  holds **no live simulator handles**, so it pickles, caches, and
  feeds figure code without re-touching simulator objects.

The digest is versioned (:data:`SCHEMA_VERSION`): bump it whenever the
simulation semantics behind a spec or the artifact layout change, and
every previously cached result is invalidated at load time. A layout
change whose older entries convert on load, with unchanged signatures,
keeps the version (see the comment on :data:`SCHEMA_VERSION`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.control.trace import DecisionTrace
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.scenarios import ScenarioConfig
from repro.faults.plan import FaultPlan
from repro.faults.summary import ResilienceSummary
from repro.monitoring.percentiles import TailSummary, tail_summary
from repro.monitoring.records import TimelineBin
from repro.scaling.estimator import EstimateHistory
from repro.scaling.policy import TierPolicyConfig
from repro.scaling.registry import get_controller

__all__ = [
    "SCHEMA_VERSION",
    "canonical",
    "content_digest",
    "RunOverrides",
    "RunSpec",
    "FineSeries",
    "RunArtifact",
    "decode_interactions",
    "DecodedInteractions",
    "DerivedLatencies",
]

#: Bump to invalidate every cached artifact (layout or semantics change).
#: v2: ``actions`` became a columnar :class:`DecisionTrace` (threshold
#: trips, reasons, SCT estimates, no-op ticks) and joined the signature.
#: v3: specs grew a :class:`~repro.faults.plan.FaultPlan`; artifacts
#: grew failed/retried counters and a resilience summary, all in the
#: signature.
#: v4: same-timestamp event execution gained deterministic priorities
#: (model < warehouse < controller < sampler < fine monitor) and the
#: warehouse collects in name order; the signature now also covers
#: ``interactions``/``generated``/``completed`` and the fine-series
#: tier column. Runs are bit-different from v3, so v3 caches are stale.
#: v5: controllers moved to the plugin registry and
#: :class:`RunOverrides` replaced its framework-specific fields
#: (``dcm_profile``/``conscale_headroom``) with the generic
#: ``controller_params`` tuple — the spec's field layout (and hence its
#: canonical encoding) changed, so v4 digests name different content.
#: v6: the request path moved behind the flow-model abstraction and
#: :class:`~repro.experiments.scenarios.ScenarioConfig` grew ``mode``
#: (discrete / fluid / hybrid), ``arrivals`` (open / closed) and
#: ``demand_distribution`` (gamma / lognormal) — the config's canonical
#: encoding changed, so v5 digests name different content. Default
#: (discrete, open, gamma) runs remain event-for-event identical to v5.
#: v7: fault storylines + recovery-aware control.
#: :class:`~repro.faults.plan.FaultPlan` grew ``storyline`` (part of the
#: canonical spec encoding), :class:`~repro.faults.summary.ResilienceSummary`
#: grew compound-incident metrics (storyline, worst_p99, slo_violation_s,
#: incident_actions — signature-covered), and registry-built controllers
#: now feed fault events back into the decision loop (scale-in
#: suspension, crash pre-warm, settle windows), so faulted runs are
#: event-for-event different from v6. Fault-free runs are unchanged but
#: the spec encoding moved, so all v6 digests name different content.
#: Still v7: the artifact now stores each request's interaction as a
#: uint16 code plus a name table, where v7 entries written before kept
#: one ``<U`` string per request. No bump, because a bump would move
#: every spec digest and signature while nothing they cover changed:
#: ``signature()`` digests the interaction column as the decoded ``<U``
#: array (:class:`DecodedInteractions`), which equals the stored one
#: byte for byte, and :meth:`RunArtifact.__setstate__`
#: converts the older entries on load.
#: Still v7: each tier's SCT estimate history is now an
#: :class:`~repro.scaling.estimator.EstimateHistory` of numpy columns,
#: where v7 entries written before kept a list of ``TierEstimate``
#: objects. ``signature()`` digests the same ``(tier, time, optimal,
#: q_upper, actionable)`` Python scalars from either form, and
#: :meth:`RunArtifact.__setstate__` converts the lists on load.
#: Still v7: the artifact no longer stores ``latencies``, where v7
#: entries written before kept it as a column. It is derived on read
#: from the completion and arrival columns by the very operations that
#: built the stored one, ``signature()`` digests it in chunks
#: (:class:`DerivedLatencies`) to the same entry, and
#: :meth:`RunArtifact.__setstate__` drops the stored column on load.
SCHEMA_VERSION = 7

#: Fingerprint of the field sets of the frozen dataclasses reachable
#: from :class:`RunSpec` (``repro.lintpass.rules_deep_digest.
#: schema_snapshot``). ``repro lint`` fails while it differs: a change
#: to those field sets bumps :data:`SCHEMA_VERSION` and re-pins this in
#: the same change, using the fingerprint the finding prints.
SCHEMA_FINGERPRINT = "0c701686bf70e4f126513b6694b4e5fdfc017b6361d157adf0c4710975811b2f"

# Grace period after the trace ends for in-flight requests to drain
# (also the horizon padding of the artifact's timeline).
DRAIN_GRACE = 20.0


# ----------------------------------------------------------------------
# canonical encoding and digests
# ----------------------------------------------------------------------

def canonical(value):
    """Reduce ``value`` to a deterministic tree of primitives.

    Handles primitives, floats (shortest round-trip repr), dataclasses
    (tagged with their qualified name so renames invalidate), dicts
    (key-sorted), sequences, numpy scalars/arrays, and any object
    exposing a ``canonical_key()`` method. Anything else is rejected
    loudly — a silently wrong digest would poison the result cache.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, float):
        return ("f", repr(value))
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        # sha256 reads a contiguous array's buffer in place: no copy.
        return ("nd", str(arr.dtype), arr.shape, hashlib.sha256(arr).hexdigest())
    if isinstance(value, (DecodedInteractions, DerivedLatencies)):
        return value.encode()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = tuple(
            (f.name, canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
        return ("dc", f"{cls.__module__}.{cls.__qualname__}", fields)
    if isinstance(value, dict):
        items = tuple(
            sorted(((canonical(k), canonical(v)) for k, v in value.items()),
                   key=repr)
        )
        return ("map", items)
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((canonical(v) for v in value), key=repr)))
    key = getattr(value, "canonical_key", None)
    if callable(key):
        cls = type(value)
        return ("key", f"{cls.__module__}.{cls.__qualname__}", canonical(key()))
    raise ConfigurationError(
        f"cannot canonicalise {type(value).__qualname__!r} for digesting; "
        "add a canonical_key() method or use a dataclass"
    )


def content_digest(value) -> str:
    """Hex SHA-256 of the canonical encoding of ``value``."""
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


# ----------------------------------------------------------------------
# run specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunOverrides:
    """Optional knobs layered on top of a scenario.

    Everything that changes a run's outcome must live either in the
    :class:`ScenarioConfig` or here — the content digest covers both,
    and out-of-band mutation (the old monkeypatching ablation style)
    would silently alias distinct runs in the cache.

    ``controller_params`` holds framework-specific knobs as sorted
    ``(name, value)`` pairs, validated and normalised against the
    controller's registered parameter schema when a :class:`RunSpec` is
    built (so ``headroom=1`` and ``headroom=1.0`` spell one digest).
    Only *explicitly supplied* params are stored — schema defaults stay
    out of the digest, so registering a new parameter later cannot
    invalidate existing caches.
    """

    # (tier, policy) pairs instead of a dict, so the spec stays frozen.
    policy_overrides: tuple[tuple[str, TierPolicyConfig], ...] | None = None
    controller_params: tuple[tuple[str, object], ...] | None = None

    def __post_init__(self) -> None:
        params = self.controller_params
        if params is None:
            return
        if isinstance(params, dict):
            params = tuple(params.items())
        pairs = tuple(sorted(((str(k), v) for k, v in params),
                             key=lambda kv: kv[0]))
        names = [k for k, _ in pairs]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate controller param(s) in overrides: {names}"
            )
        object.__setattr__(self, "controller_params", pairs or None)

    @classmethod
    def from_params(
        cls,
        params: dict[str, object] | None,
        policy_overrides: tuple[tuple[str, TierPolicyConfig], ...] | None = None,
    ) -> "RunOverrides":
        """Build overrides from a plain ``{param: value}`` dict."""
        return cls(
            policy_overrides=policy_overrides,
            controller_params=tuple(params.items()) if params else None,
        )

    @property
    def empty(self) -> bool:
        return self.policy_overrides is None and self.controller_params is None

    def policy_dict(self) -> dict[str, TierPolicyConfig] | None:
        """The runner-facing ``{tier: policy}`` view."""
        if self.policy_overrides is None:
            return None
        return dict(self.policy_overrides)

    def params_dict(self) -> dict[str, object]:
        """The explicitly supplied controller params as a dict."""
        return dict(self.controller_params or ())


@dataclass(frozen=True, eq=False)
class RunSpec:
    """A frozen, content-addressed description of one evaluation run."""

    framework: str
    config: ScenarioConfig
    overrides: RunOverrides = field(default_factory=RunOverrides)
    # The fault plan lives on the *spec*, not the ScenarioConfig: a
    # faulted run and its fault-free twin then share a config digest,
    # which is exactly what ``repro diff`` requires to compare them.
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        # Unknown frameworks fail here with the registered names listed.
        controller = get_controller(self.framework)
        if self.overrides.controller_params is not None:
            # Coerce params against the registered schema so equivalent
            # spellings of a value normalise to one digest, and typo'd
            # param names fail at spec construction, not mid-run.
            coerced = controller.coerce_params(self.overrides.params_dict())
            object.__setattr__(
                self,
                "overrides",
                dataclasses.replace(
                    self.overrides,
                    controller_params=tuple(coerced.items()),
                ),
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan or None, got "
                f"{type(self.faults).__qualname__}"
            )
        if self.faults is not None and not self.faults:
            # Normalise "empty plan" to "no plan" so both spell the
            # same digest.
            object.__setattr__(self, "faults", None)

    # ScenarioConfig nests dicts (Calibration.base_demands), so the
    # generated field-tuple hash would fail; identity is the digest.
    def digest(self) -> str:
        digest = getattr(self, "_digest", None)
        if digest is None:
            digest = content_digest(("runspec", SCHEMA_VERSION, self))
            # Write-once memo of a pure function of the frozen fields —
            # not a mutation of spec state, so the digest stays honest.
            object.__setattr__(self, "_digest", digest)  # repro-lint: ignore[deep-frozen-flow]
        return digest

    def __hash__(self) -> int:
        return hash(self.digest())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.digest() == other.digest()

    @property
    def label(self) -> str:
        """Short human-readable identity for progress reporting."""
        cfg = self.config
        base = f"{self.framework}/{cfg.trace_name}@{cfg.name}#seed{cfg.seed}"
        if self.faults is not None:
            return f"{base}!{self.faults.describe()}"
        return base


# ----------------------------------------------------------------------
# run artifacts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FineSeries:
    """One server's fine-grained interval samples as plain arrays.

    Values are in the run's *scaled* domain (like the live
    ``IntervalMonitor``): figure code converts with ``config.rt_scale``
    exactly as it did against the warehouse. The runner passes the
    float64 columns over as writeable views of the closed monitor's
    block rows, not copies; ``completions`` is an int64 copy of its row.
    """

    server: str
    tier: str
    t_end: np.ndarray
    concurrency: np.ndarray
    throughput: np.ndarray
    response_time: np.ndarray  # NaN where no request completed
    completions: np.ndarray

    def __len__(self) -> int:
        return int(self.t_end.size)


def decode_interactions(codes: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """The interaction name of each request: ``names[codes[i]]``.

    dtype ``<U`` the longest of ``names``, ``<U1`` with shape ``(0,)``
    when there are no requests.
    """
    return np.array(names, dtype=str)[codes]


#: Rows :class:`DecodedInteractions` and :class:`DerivedLatencies` build
#: and hash per step.
DECODE_CHUNK = 1 << 16


def _chunked_entry(size: int, rows: Callable[[int, int], np.ndarray]) -> tuple:
    """The ``("nd", dtype, (size,), sha256)`` entry of a column whose
    rows ``[start, stop)`` are ``rows(start, stop)``, built and hashed
    :data:`DECODE_CHUNK` rows at a time."""
    digest = hashlib.sha256()
    for start in range(0, size, DECODE_CHUNK):
        digest.update(rows(start, start + DECODE_CHUNK))
    return ("nd", str(rows(0, 0).dtype), (size,), digest.hexdigest())


class DecodedInteractions:
    """``decode_interactions(codes, names)`` for digesting, never built.

    :func:`canonical` encodes it to the very ``("nd", dtype, shape,
    sha256)`` entry of the decoded array, but decodes and hashes
    :data:`DECODE_CHUNK` codes at a time, so the whole ``<U`` column (4
    bytes a character a request) never exists.
    """

    __slots__ = ("codes", "names")

    def __init__(self, codes: np.ndarray, names: tuple[str, ...]) -> None:
        self.codes = codes
        self.names = names

    def encode(self) -> tuple:
        table = np.array(self.names, dtype=str)
        codes = self.codes
        return _chunked_entry(codes.size, lambda a, b: table[codes[a:b]])


def _derive_latencies(
    completion_times: np.ndarray, arrival_times: np.ndarray, rt_scale: float
) -> np.ndarray:
    """Base-scale latencies: completion minus arrival, divided in place
    by ``rt_scale``."""
    latencies = completion_times - arrival_times
    latencies /= rt_scale
    return latencies


class DerivedLatencies:
    """:attr:`RunArtifact.latencies` for digesting, never built.

    :func:`canonical` encodes it to the very ``("nd", "float64", shape,
    sha256)`` entry of the derived column, but derives and hashes
    :data:`DECODE_CHUNK` rows at a time: the operations are elementwise,
    so each chunk holds the whole column's bits for its rows.
    """

    __slots__ = ("completion_times", "arrival_times", "rt_scale")

    def __init__(
        self, completion_times: np.ndarray, arrival_times: np.ndarray,
        rt_scale: float,
    ) -> None:
        self.completion_times = completion_times
        self.arrival_times = arrival_times
        self.rt_scale = rt_scale

    def encode(self) -> tuple:
        comp, arr, scale = self.completion_times, self.arrival_times, self.rt_scale
        return _chunked_entry(
            comp.size, lambda a, b: _derive_latencies(comp[a:b], arr[a:b], scale)
        )


@dataclass
class RunArtifact:
    """Serializable outcome of one scenario run.

    It stores what the run measured. :attr:`latencies` is derived on
    every read from the completion and arrival columns, already
    converted to base-scale seconds (the load-scaling contract);
    fine-grained series stay in the scaled domain like the monitors
    that produced them. Each request's RUBBoS
    interaction is kept as a uint16 code into ``interaction_names``
    (2 bytes a request, where one ``<U`` string costs 4 per character);
    :attr:`interactions` decodes them on read. The decision trace and
    each tier's SCT estimate history
    (:class:`~repro.scaling.estimator.EstimateHistory`) are columns too,
    so loading an artifact builds no ``DecisionEvent``, ``TierEstimate``
    or ``SCTEstimate``: a query or an iteration builds the ones it
    returns.
    """

    spec: RunSpec
    completion_times: np.ndarray
    arrival_times: np.ndarray
    #: uint16, one per request: an index into ``interaction_names``.
    interaction_codes: np.ndarray
    #: The interaction names with at least one request, in code order.
    interaction_names: tuple[str, ...]
    generated: int
    completed: int
    actions: DecisionTrace
    vm_times: np.ndarray
    vm_counts: np.ndarray
    vm_counts_by_tier: dict[str, np.ndarray]
    cpu_series: dict[str, tuple[np.ndarray, np.ndarray]]
    estimates: dict[str, EstimateHistory] = field(default_factory=dict)
    fine_series: dict[str, FineSeries] = field(default_factory=dict)
    # Resilience accounting (zero / None on fault-free runs): requests
    # failed by crashes, physical retries issued by impatient clients,
    # and the per-episode recovery analysis.
    failed: int = 0
    retried: int = 0
    resilience: ResilienceSummary | None = None
    schema: int = SCHEMA_VERSION

    def __setstate__(self, state: dict) -> None:
        # Entries written before the derived latencies kept the column.
        if "latencies" in state:
            state = dict(state)
            del state["latencies"]
        # Entries written before the codes kept ``interactions``, the
        # decoded ``<U`` array (the longest name present, so decoding
        # the converted codes gives it back byte for byte).
        if "interactions" in state and "interaction_codes" not in state:
            state = dict(state)
            names, codes = np.unique(state.pop("interactions"), return_inverse=True)
            state["interaction_codes"] = codes.astype(np.uint16)
            state["interaction_names"] = tuple(names.tolist())
        # Entries written before the estimate columns kept each tier's
        # history as a list of TierEstimate objects.
        estimates = state.get("estimates", {})
        if any(isinstance(h, list) for h in estimates.values()):
            state = dict(state)
            state["estimates"] = {
                tier: EstimateHistory.from_estimates(h) if isinstance(h, list) else h
                for tier, h in estimates.items()
            }
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # identity / convenience
    # ------------------------------------------------------------------
    @property
    def framework(self) -> str:
        return self.spec.framework

    @property
    def config(self) -> ScenarioConfig:
        return self.spec.config

    @property
    def monitored_servers(self) -> list[str]:
        """Servers with retained fine-grained series (end-of-run set)."""
        return sorted(self.fine_series)

    @property
    def interactions(self) -> np.ndarray:
        """RUBBoS interaction name of each request, decoded from the
        codes on every read (see :func:`decode_interactions`)."""
        return decode_interactions(self.interaction_codes, self.interaction_names)

    @property
    def latencies(self) -> np.ndarray:
        """Base-scale latency of each request (seconds), derived on every
        read: completion minus arrival, divided in place by
        ``config.rt_scale``."""
        return _derive_latencies(
            self.completion_times, self.arrival_times, self.config.rt_scale
        )

    def signature(self) -> str:
        """Content digest of the artifact's recorded series.

        Two runs of the same spec must produce the same signature —
        this is the determinism contract the engine tests pin down
        (sequential vs parallel, in-memory vs cache round-trip).
        Every field of the artifact is covered (the
        deep-digest-provenance lint rule cross-checks this against the
        dataclass). The interaction column is digested decoded (in
        chunks, see :class:`DecodedInteractions`), so a signature does
        not depend on the order of the name table; the derived latencies
        are digested in chunks too (:class:`DerivedLatencies`).
        """
        return content_digest(
            (
                "artifact",
                self.schema,
                self.spec.digest(),
                self.actions.signature_key(),
                DerivedLatencies(
                    self.completion_times, self.arrival_times, self.config.rt_scale
                ),
                self.completion_times,
                self.arrival_times,
                DecodedInteractions(self.interaction_codes, self.interaction_names),
                self.generated,
                self.completed,
                self.vm_times,
                self.vm_counts,
                self.vm_counts_by_tier,
                self.cpu_series,
                self.estimate_keys(),
                [
                    (s.server, s.tier, s.t_end, s.concurrency, s.throughput,
                     s.completions)
                    for _, s in sorted(self.fine_series.items())
                ],
                self.failed,
                self.retried,
                self.resilience,
            )
        )

    def estimate_keys(self) -> list[tuple]:
        """``(tier, time, optimal, q_upper, actionable)`` of every SCT
        estimate, tiers sorted: the rows the signature digests."""
        return [
            (tier, *key)
            for tier, history in sorted(self.estimates.items())
            for key in history.keys()
        ]

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def vm_seconds(self) -> float:
        """Total billable VM-seconds over the run (the cost metric)."""
        if self.vm_times.size < 2:
            return 0.0
        dt = np.diff(self.vm_times)
        return float(np.sum(self.vm_counts[:-1] * dt))

    def _latencies_after(self, cutoff: float) -> np.ndarray:
        lat = self.latencies[self.completion_times >= cutoff]
        if lat.size == 0:
            raise ExperimentError("no completed requests after the warm-up cutoff")
        return lat

    def tail(self, after: float | None = None) -> TailSummary:
        """Tail-latency summary, optionally skipping a warm-up period."""
        cutoff = self.config.warmup if after is None else after
        return tail_summary(self._latencies_after(cutoff))

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` (0-100) over the post-warm-up window
        (seconds)."""
        return float(np.percentile(self._latencies_after(self.config.warmup), q))

    def by_interaction(self, after: float = 0.0) -> dict[str, np.ndarray]:
        """Base-scale latencies grouped by RUBBoS interaction type.

        Keys are sorted; a name with no request completing at or after
        ``after`` has no key.
        """
        mask = self.completion_times >= after
        names = self.interaction_names
        codes = self.interaction_codes[mask]
        lats = self.latencies[mask]
        present = np.flatnonzero(np.bincount(codes, minlength=len(names)))
        return {
            names[c]: lats[codes == c]
            for c in sorted(present, key=lambda c: names[c])
        }

    def timeline(self, bin_width: float | None = None) -> list[TimelineBin]:
        """Latency/throughput timeline with base-scale values.

        Computed from the stored request arrays; bins with zero
        completions report zero throughput and NaN latencies so plots
        show gaps rather than interpolated values.
        """
        width = bin_width if bin_width is not None else self.config.timeline_bin
        if width <= 0:
            raise ExperimentError(f"bin_width must be > 0, got {width!r}")
        duration = self.config.duration + DRAIN_GRACE
        comp = self.completion_times
        lats = self.latencies
        n_bins = max(1, int(np.ceil(duration / width)))
        idx = np.minimum((comp / width).astype(int), n_bins - 1)
        # completions-per-wall-second is in the scaled domain; multiply
        # by rt_scale to report base-scale requests/second.
        tp_scale = self.config.rt_scale / width
        bins: list[TimelineBin] = []
        for b in range(n_bins):
            mask = idx == b
            n = int(mask.sum())
            if n > 0:
                r = lats[mask]
                mean_rt = float(r.mean())
                p95 = float(np.percentile(r, 95))
                mx = float(r.max())
            else:
                mean_rt = p95 = mx = math.nan
            bins.append(
                TimelineBin(
                    t_start=b * width,
                    t_end=(b + 1) * width,
                    completions=n,
                    throughput=n * tp_scale,
                    mean_rt=mean_rt,
                    p95_rt=p95,
                    max_rt=mx,
                )
            )
        return bins
