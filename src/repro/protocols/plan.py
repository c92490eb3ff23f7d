"""Compiled protocol plans: what depends on *(protocol, n)* only, built once.

A protocol's spec, the Rule (a)/(b) augmentation of the extended protocols,
the local-step relation compiled from both and the Theorem 10 termination
plan of terminating quorum commit are functions of the protocol and the
number of sites, not of the scenario -- and deriving the augmentation and
the termination plan walks the reachable global-state graph, milliseconds
against ~0.25 ms for a whole scenario.

:func:`compiled_plan` memoizes one immutable :class:`ProtocolPlan` per key
for the life of the process.  Definitions stay fresh and cheap; every role
they build and the model checker's ``resolve_protocol`` read the *same* plan
object.  Forked workers inherit the memo, spawned workers rebuild each key
at most once.  Only the small derived tables are retained, never the
reachability graph, and the derivations themselves stay uncached pure
functions: this module is their only caller outside ``repro.core`` and the
experiments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.fsa import CommitProtocolSpec
from repro.core.generalize import TerminationPlan, derive_termination_plan
from repro.core.relation import ProtocolRelation, compile_relation
from repro.core.rules import AugmentedProtocol, augment_with_rules


@dataclass(frozen=True)
class ProtocolPlan:
    """Everything the executable roles need that is fixed per (protocol, n).

    ``relation`` is the local-step relation the roles interpret, compiled
    from ``spec`` and ``augmentation`` (the Rule (a)/(b) tables, extended
    protocols only); ``termination`` holds the Theorem 10 ingredients
    (terminating quorum commit only).  Both derivations are for
    ``n_sites`` sites.
    """

    name: str
    n_sites: int
    spec: CommitProtocolSpec
    relation: ProtocolRelation
    augmentation: Optional[AugmentedProtocol] = None
    termination: Optional[TerminationPlan] = None


@functools.cache
def compiled_plan(
    name: str,
    n_sites: int,
    spec_factory: Callable[[], CommitProtocolSpec],
    *,
    augment: bool = False,
    terminate: bool = False,
) -> ProtocolPlan:
    """The process-wide plan of protocol ``name`` instantiated for ``n_sites``.

    ``spec_factory`` and the flags (derive the Rule (a)/(b) tables / the
    Theorem 10 plan) are fixed per name: one plan per ``(name, n_sites)``.
    """
    spec = spec_factory()
    augmentation = augment_with_rules(spec, n_sites) if augment else None
    return ProtocolPlan(
        name=name,
        n_sites=n_sites,
        spec=spec,
        relation=compile_relation(spec, augmentation),
        augmentation=augmentation,
        termination=derive_termination_plan(spec, n_sites) if terminate else None,
    )
