"""Compiled protocol plans: what depends on *(protocol, n)* only, built once.

A protocol's spec, its transitions indexed by source state, the Rule (a)/(b)
augmentation of the extended protocols and the Theorem 10 termination plan
of terminating quorum commit are functions of the protocol and the number of
sites, not of the scenario -- and deriving the last two walks the reachable
global-state graph, milliseconds against ~0.25 ms for a whole scenario.

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
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from repro.core.fsa import CommitProtocolSpec, MASTER_ROLE, RoleAutomaton, Transition
from repro.core.generalize import TerminationPlan, derive_termination_plan
from repro.core.rules import AugmentedProtocol, augment_with_rules


@dataclass(frozen=True)
class RolePlan:
    """One role automaton's transitions keyed by source state, and its finals.

    ``RoleAutomaton.transitions_from`` rescans every transition per call and
    roles look transitions up on every delivery, hence the read-only index.
    """

    transitions_from: Mapping[str, tuple[Transition, ...]]
    final_states: frozenset[str]


@dataclass(frozen=True)
class ProtocolPlan:
    """Everything the executable roles need that is fixed per (protocol, n).

    ``augmentation`` holds the Rule (a)/(b) tables (extended protocols only)
    and ``termination`` the Theorem 10 ingredients (terminating quorum commit
    only), both derived for ``n_sites`` sites.
    """

    name: str
    n_sites: int
    spec: CommitProtocolSpec
    master: RolePlan
    slave: RolePlan
    augmentation: Optional[AugmentedProtocol] = None
    termination: Optional[TerminationPlan] = None

    def role(self, role: str) -> RolePlan:
        """The tables of ``role`` (``"master"`` or ``"slave"``)."""
        return self.master if role == MASTER_ROLE else self.slave


def _role_plan(automaton: RoleAutomaton) -> RolePlan:
    return RolePlan(
        transitions_from=MappingProxyType(
            {state: automaton.transitions_from(state) for state in automaton.states}
        ),
        final_states=automaton.final_states,
    )


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
    return ProtocolPlan(
        name=name,
        n_sites=n_sites,
        spec=spec,
        master=_role_plan(spec.master),
        slave=_role_plan(spec.slave),
        augmentation=augment_with_rules(spec, n_sites) if augment else None,
        termination=derive_termination_plan(spec, n_sites) if terminate else None,
    )
