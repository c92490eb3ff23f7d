"""Compiled protocol plans: what depends on *(protocol, n)* only, built once.

A protocol's spec, the Rule (a)/(b) augmentation of the extended protocols,
the Theorem 10 termination plan of the terminating protocols, the
local-step relation compiled from them and its move table (whose memo of
moves fills as runs reach new inboxes) are functions of the protocol and
the number of sites, not of the scenario -- and deriving the augmentation
and the termination plan walks the reachable global-state graph,
milliseconds against ~0.25 ms for a whole scenario.

:func:`compiled_plan` memoizes one immutable :class:`ProtocolPlan` per key
for the life of the process, and :func:`termination_plan` one Theorem 10
plan per spec.  Definitions stay fresh and cheap; every role they build and
the model checker's ``resolve_protocol`` read the *same* plan object.
Forked workers inherit the memo, spawned workers rebuild each key at most
once.  Only the small derived tables are retained, never the reachability
graph, and the derivations themselves stay uncached pure functions: this
module is their only caller outside ``repro.core`` and the experiments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.fsa import CommitProtocolSpec
from repro.core.generalize import TerminationPlan, derive_termination_plan
from repro.core.relation import MoveTable, ProtocolRelation, compile_relation, compile_termination
from repro.core.rules import AugmentedProtocol, augment_with_rules

#: Theorem 10's promotion message is a property of the role automata, not of
#: the cluster size, so it is derived on the smallest multi-slave instance.
_DERIVATION_SITES = 3


@dataclass(frozen=True)
class ProtocolPlan:
    """Everything the executable roles need that is fixed per (protocol, n).

    ``relation`` is the local-step relation the roles interpret, compiled
    from ``spec`` and either ``augmentation`` (the Rule (a)/(b) tables for
    ``n_sites`` sites, extended protocols only) or ``termination`` (the
    Theorem 10 ingredients, terminating protocols only).  ``moves`` is that
    relation compiled for ``n_sites`` sites, the table the roles step by.
    """

    name: str
    n_sites: int
    spec: CommitProtocolSpec
    relation: ProtocolRelation
    augmentation: Optional[AugmentedProtocol] = None
    termination: Optional[TerminationPlan] = None
    moves: MoveTable = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", MoveTable(self.relation, self.n_sites))


@functools.cache
def compiled_plan(
    name: str,
    n_sites: int,
    spec_factory: Callable[[], CommitProtocolSpec],
    *,
    augment: bool = False,
    terminate: bool = False,
    transient_rule: bool = True,
) -> ProtocolPlan:
    """The process-wide plan of protocol ``name`` instantiated for ``n_sites``.

    ``spec_factory`` and the flags (derive the Rule (a)/(b) tables / add the
    Theorem 10 termination protocol, with or without the Section 6
    transient rule) are fixed per name: one plan per ``(name, n_sites)``.
    """
    spec = spec_factory()
    augmentation = augment_with_rules(spec, n_sites) if augment else None
    termination = termination_plan(spec_factory) if terminate else None
    if termination is None:
        relation = compile_relation(spec, augmentation)
    else:
        relation = compile_termination(spec, termination, transient_rule=transient_rule)
    return ProtocolPlan(
        name=name,
        n_sites=n_sites,
        spec=spec,
        relation=relation,
        augmentation=augmentation,
        termination=termination,
    )


@functools.cache
def termination_plan(spec_factory: Callable[[], CommitProtocolSpec]) -> TerminationPlan:
    """The Theorem 10 plan of a spec, derived once per process."""
    return derive_termination_plan(spec_factory(), _DERIVATION_SITES)
