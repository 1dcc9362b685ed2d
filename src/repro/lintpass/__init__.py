"""repro-lint: the determinism & invariant static-analysis pass.

Seven rules — three per-file AST checks and four whole-program
analyses over a shared call graph and dataflow index — encode the
invariants the repository's bit-reproducibility contract rests on: the
properties that, when violated, produce runs that *look* fine but
cannot be reproduced, cached, or diffed. Every ``repro lint`` runs all
of them:

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
``deep-digest-provenance``  every field of a digested dataclass (own
                            and inherited) is reachable from its
                            digest method through helper calls; dead
                            CLI flags; the digested schema matches
                            ``SCHEMA_FINGERPRINT``
``deep-bus-vocabulary``     every kind reaching a ``DecisionEvent``
                            (literal or helper-forwarded) is declared
                            in :mod:`repro.control.events`; dead
                            vocabulary, publisher-less handlers, and
                            ``ControllerSpec.decision_kinds``
                            divergence
``deep-priority-layers``    schedule call sites pass named
                            ``PRIORITY_*`` constants; no two layers
                            share one priority value
``deep-frozen-flow``        no ``object.__setattr__`` on frozen
                            dataclasses outside ``__post_init__``,
                            tracked through aliases and helper calls
==========================  ==========================================

A violation can be silenced on the line it is reported on with a
comment that names the rule::

    risky_call()  # repro-lint: ignore[wall-clock]

A comment that names no rule, or an unknown one, is an error. Run it
as ``python -m repro lint [paths...]``: it prints one line per finding
and exits 1 on any finding, 2 on bad input. A change to the field
sets of the ``RunSpec`` closure that was not re-pinned in
``SCHEMA_FINGERPRINT``, beside ``SCHEMA_VERSION`` in
:mod:`repro.experiments.artifact`, is one such finding. The dynamic
complement (the same-timestamp ``race`` twin check) lives in
:mod:`repro.experiments.twincheck`.
"""

from __future__ import annotations

from repro.lintpass.base import Rule, Violation, all_rules
from repro.lintpass.run import LintReport, run_lint

__all__ = [
    "Rule",
    "Violation",
    "all_rules",
    "LintReport",
    "run_lint",
]
