"""Compiled protocol plans: what depends on *(protocol, n)* only, built once.

A protocol's spec, the Rule (a)/(b) augmentation of the extended protocols,
the Theorem 10 termination plan of the terminating protocols, the
local-step relation compiled from them and its move table (whose memo of
moves fills as runs reach new inboxes) are functions of the protocol and
the number of sites, not of the scenario -- and deriving the augmentation
and the termination plan walks the reachable global-state graph,
milliseconds against ~0.25 ms for a whole scenario.

:func:`compiled_plan` memoizes one immutable :class:`ProtocolPlan` per
(frozen protocol row, n) for the life of the process, reading the row's one
:class:`Extension`, and :func:`termination_plan` one Theorem 10 plan per
spec, so both terminating-3PC rows share one derivation.  Every role a row
builds and the model checker's setups (:meth:`ProtocolPlan.model_setup`)
read the *same* plan object.
Forked workers inherit the memo, spawned workers rebuild each key at most
once.  Only the small derived tables are retained, never the reachability
graph, and the derivations themselves stay uncached pure functions: this
module is their only caller outside ``repro.core`` and the experiments.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.fsa import CommitProtocolSpec
from repro.core.generalize import TerminationPlan, derive_termination_plan
from repro.core.reachability import ModelSetup
from repro.core.relation import MoveTable, ProtocolRelation, compile_relation, compile_termination
from repro.core.rules import AugmentedProtocol, augment_with_rules

if TYPE_CHECKING:
    from repro.protocols.registry import Protocol


class Extension(enum.Enum):
    """The one extension a protocol's automata carry (none, or one of three)."""

    #: The bare automata (Figs. 1 and 3): no timeouts, blocking.
    NONE = "none"
    #: Skeen & Stonebraker's Rule (a)/(b) timeout and undeliverable
    #: transitions (Fig. 2; the naive extended 3PC of Section 3).
    RULES = "rules"
    #: The Section 5.3 termination protocol plus the Section 6 transient rule.
    TERMINATION = "termination"
    #: The Section 5.3 termination protocol alone (permanent partitions only).
    TERMINATION_PERMANENT = "termination-permanent"


#: Theorem 10's promotion message is a property of the role automata, not of
#: the cluster size, so it is derived on the smallest multi-slave instance.
_DERIVATION_SITES = 3


@dataclass(frozen=True)
class ProtocolPlan:
    """Everything the executable roles need that is fixed per (protocol, n).

    ``relation`` is the local-step relation the roles interpret, compiled
    from ``spec`` and either ``augmentation`` (the Rule (a)/(b) tables for
    ``n_sites`` sites, extended protocols only) or the spec's
    :func:`termination_plan` (terminating protocols only).  ``moves`` is
    that relation compiled for ``n_sites`` sites, the only table the roles
    step by and the model checker's setups walk.  ``augmentation`` is kept
    only for ``resolve_protocol``, the spec+augmentation shim of
    :mod:`repro.modelcheck.protocols`.
    """

    name: str
    n_sites: int
    spec: CommitProtocolSpec
    relation: ProtocolRelation
    augmentation: Optional[AugmentedProtocol] = None
    moves: MoveTable = field(init=False, compare=False, repr=False)
    setups: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", MoveTable(self.relation, self.n_sites))

    def model_setup(self, no_voters: Optional[frozenset[int]] = None) -> ModelSetup:
        """The explorer's setup over ``moves`` for one vote script, built on
        first use and kept, with its memo, as long as the plan."""
        if no_voters not in self.setups:
            self.setups[no_voters] = ModelSetup(self.moves, no_voters=no_voters)
        return self.setups[no_voters]


@functools.cache
def compiled_plan(protocol: "Protocol", n_sites: int) -> ProtocolPlan:
    """The process-wide plan of ``protocol`` instantiated for ``n_sites``.

    The row fixes the spec and the one extension the relation carries, so
    the plan is a function of ``(protocol, n_sites)``.
    """
    spec_factory, extension = protocol.spec_factory, protocol.extension
    spec = spec_factory()
    augmentation = augment_with_rules(spec, n_sites) if extension is Extension.RULES else None
    if extension in (Extension.TERMINATION, Extension.TERMINATION_PERMANENT):
        relation = compile_termination(
            spec, termination_plan(spec_factory), transient_rule=extension is Extension.TERMINATION
        )
    else:
        relation = compile_relation(spec, augmentation)
    # The row's name, not the spec's: extended 2PC explores 2PC's spec.
    relation = replace(relation, name=protocol.name)
    return ProtocolPlan(
        name=protocol.name, n_sites=n_sites, spec=spec, relation=relation, augmentation=augmentation
    )


@functools.cache
def termination_plan(spec_factory: Callable[[], CommitProtocolSpec]) -> TerminationPlan:
    """The Theorem 10 plan of a spec, derived once per process."""
    return derive_termination_plan(spec_factory(), _DERIVATION_SITES)
