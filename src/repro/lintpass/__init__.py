"""repro-lint: the determinism & invariant static-analysis pass.

Six per-file AST rules plus four whole-program (``--deep``) analyses
encode the invariants the repository's bit-reproducibility contract
rests on — the properties that, when violated, produce runs that *look*
fine but cannot be reproduced, cached, or diffed:

==========================  ==========================================
rule id                     invariant
==========================  ==========================================
``rng-direct``              all randomness flows through
                            :class:`repro.rng.RngRegistry` named
                            streams
``wall-clock``              simulation packages never read the host
                            clock
``unordered-iter``          no set/dict-order-dependent values feed
                            the scheduler, digests, or the control bus
``digest-coverage``         every field of a digested dataclass
                            appears in its digest/signature method
``event-kinds``             every literal event kind emitted is
                            declared in :mod:`repro.control.events`
``frozen-mutate``           no ``object.__setattr__`` on frozen
                            dataclasses outside ``__post_init__``
``deep-digest-provenance``  digest coverage traced through helper
                            methods and inheritance; dead CLI flags;
                            schema-fingerprint drift (supersedes
                            ``digest-coverage``)
``deep-bus-vocabulary``     publisher/subscriber closure: helper-
                            forwarded kinds, dead vocabulary,
                            publisher-less handlers, and
                            ``ControllerSpec.decision_kinds``
                            divergence
``deep-priority-layers``    schedule call sites pass named
                            ``PRIORITY_*`` constants; no two layers
                            share one priority value
``deep-frozen-flow``        frozen instances tracked through aliases
                            and helper calls (supersedes
                            ``frozen-mutate``)
==========================  ==========================================

A violation can be silenced on its line with a justification comment::

    risky_call()  # repro-lint: ignore[wall-clock]

(On a multi-line statement the comment may sit on any line of the
statement's span.) Run it as ``python -m repro lint [--deep] [--json]
[--baseline FILE] [paths...]``; pre-existing deep findings live in
``results/lint-baseline.json`` with burn-down semantics — the gate
fails on *new* findings only. The dynamic complement (the
same-timestamp ``race`` twin check) lives in
:mod:`repro.experiments.twincheck`.
"""

from __future__ import annotations

from repro.lintpass.base import Rule, Violation, all_rules
from repro.lintpass.run import LintReport, run_lint, select_rules

__all__ = [
    "Rule",
    "Violation",
    "all_rules",
    "LintReport",
    "run_lint",
    "select_rules",
]
