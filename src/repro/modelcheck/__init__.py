"""Exhaustive model checking of the paper's commit protocols.

The MODELCHECK spec kind: a :class:`~repro.modelcheck.spec.ModelCheckSpec`
names a protocol, a site count and a fault envelope; its executor runs the
bounded exhaustive exploration of :mod:`repro.core.reachability`, verifies
the paper's invariants (same-decision, no-commit-after-abort,
commit-requires-votes, no-blocking) as machine-checked properties of the
global state graph, and reduces to a
:class:`~repro.modelcheck.summary.ModelCheckSummary` with per-invariant
verdicts and minimal counterexample traces (:func:`check_model` returns a
:class:`ModelCheckResult`, the same record plus the spec and the graph).

Because the kind is a row of the spec-kind table in
:mod:`repro.engine.registry` (defined in :mod:`repro.modelcheck.kind`),
exhaustive checking shards, caches, streams and merges exactly like the
simulator grids.  :mod:`repro.modelcheck.differential` runs the two
drivers of each protocol's one compiled move table -- the exhaustive
explorer and the event-driven simulator -- on identical configurations
and judges every simulator run against the checker by one agreement rule.
"""

from repro.modelcheck.spec import ModelCheckSpec
from repro.modelcheck.summary import ModelCheckSummary
from repro.modelcheck.checker import ModelCheckResult, check_model
from repro.modelcheck.protocols import checkable_protocols, resolve_protocol

__all__ = [
    "ModelCheckSpec",
    "ModelCheckSummary",
    "ModelCheckResult",
    "check_model",
    "checkable_protocols",
    "resolve_protocol",
]
