"""Rule (a) and Rule (b): timeout and undeliverable-message augmentation.

Section 2 of the paper quotes the two rules Skeen & Stonebraker proved
necessary and sufficient for two-site simple partitioning with return of
undeliverable messages:

* **Rule (a)** -- for a state ``si``: if its concurrency set ``C(si)``
  contains a commit state, assign a timeout transition from ``si`` to a
  commit state; else assign a timeout transition to an abort state.
* **Rule (b)** -- for a state ``sj``: if ``ti`` is in ``S(sj)`` and ``ti``
  has a timeout transition to a commit (abort) state, assign an
  undeliverable-message transition from ``sj`` to a commit (abort) state.

Applying them to the two-phase commit protocol mechanically regenerates the
extended protocol of Fig. 2; applying them to the three-phase commit protocol
produces the "naive" extension whose inconsistency Section 3 demonstrates
(and our simulator reproduces).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from repro.core.concurrency import ConcurrencyAnalysis, LocalStateId, analyze
from repro.core.fsa import CommitProtocolSpec, MASTER_ROLE, SLAVE_ROLE


class FinalAction(enum.Enum):
    """The terminal decision a timeout / undeliverable transition leads to."""

    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True)
class AugmentedProtocol:
    """A commit protocol plus Rule (a)/(b) timeout and UD transitions.

    Immutable (read-only copies of the tables): one instance per
    (protocol, n) is shared process-wide, see :mod:`repro.protocols.plan`.

    Attributes:
        spec: the underlying commit protocol.
        n_sites: instantiation size used when deriving the sets.
        timeout_action: Rule (a)'s target per (role, state); final states and
            unoccupied states carry no entry.
        undeliverable_action: Rule (b)'s target per (role, state); states
            whose sender set is empty (they never receive messages) carry no
            entry, and states whose sender set mixes commit- and
            abort-timeouts are recorded in :attr:`ambiguous`.
        ambiguous: (role, state) pairs for which Rule (b) is not well defined.
    """

    spec: CommitProtocolSpec
    n_sites: int
    timeout_action: Mapping[LocalStateId, FinalAction] = field(default_factory=dict)
    undeliverable_action: Mapping[LocalStateId, FinalAction] = field(default_factory=dict)
    ambiguous: frozenset[LocalStateId] = frozenset()

    def __post_init__(self) -> None:
        for name in ("timeout_action", "undeliverable_action"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "ambiguous", frozenset(self.ambiguous))

    def timeout_target(self, role: str, state: str) -> Optional[FinalAction]:
        """Rule (a) action for ``(role, state)`` or ``None``."""
        return self.timeout_action.get((role, state))

    def undeliverable_target(self, role: str, state: str) -> Optional[FinalAction]:
        """Rule (b) action for ``(role, state)`` or ``None``."""
        return self.undeliverable_action.get((role, state))

    def describe(self) -> str:
        """Readable table of the augmentation (mirrors Fig. 2's annotations)."""
        lines = [f"augmentation of {self.spec.name} (n={self.n_sites})"]
        for role in (MASTER_ROLE, SLAVE_ROLE):
            automaton = self.spec.automaton(role)
            for state in sorted(automaton.states):
                timeout = self.timeout_action.get((role, state))
                undeliverable = self.undeliverable_action.get((role, state))
                if timeout is None and undeliverable is None:
                    continue
                parts = []
                if timeout is not None:
                    parts.append(f"timeout -> {timeout.value}")
                if undeliverable is not None:
                    parts.append(f"undeliverable -> {undeliverable.value}")
                lines.append(f"  {role}:{state:<3} {'; '.join(parts)}")
        return "\n".join(lines)


def rule_a(analysis: ConcurrencyAnalysis) -> dict[LocalStateId, FinalAction]:
    """Apply Rule (a) to every occupied, non-final local state."""
    actions: dict[LocalStateId, FinalAction] = {}
    for local in sorted(analysis.occupied):
        role, state = local
        automaton = analysis.spec.automaton(role)
        if automaton.is_final(state):
            continue
        if analysis.has_commit_in_concurrency_set(role, state):
            actions[local] = FinalAction.COMMIT
        else:
            actions[local] = FinalAction.ABORT
    return actions


def rule_b(
    analysis: ConcurrencyAnalysis,
    timeout_action: dict[LocalStateId, FinalAction],
) -> tuple[dict[LocalStateId, FinalAction], set[LocalStateId]]:
    """Apply Rule (b) given Rule (a)'s timeout assignments.

    Returns the undeliverable-message action map and the set of states for
    which the rule is ambiguous (sender set mixes commit and abort
    timeouts).
    """
    actions: dict[LocalStateId, FinalAction] = {}
    ambiguous: set[LocalStateId] = set()
    for local in sorted(analysis.occupied):
        role, state = local
        automaton = analysis.spec.automaton(role)
        if automaton.is_final(state):
            continue
        senders = analysis.sender_set(role, state)
        if not senders:
            continue
        sender_actions = {
            timeout_action[sender]
            for sender in senders
            if sender in timeout_action
        }
        if not sender_actions:
            continue
        if len(sender_actions) > 1:
            ambiguous.add(local)
            continue
        actions[local] = next(iter(sender_actions))
    return actions, ambiguous


def augment_with_rules(
    spec: CommitProtocolSpec,
    n_sites: int,
    *,
    analysis: Optional[ConcurrencyAnalysis] = None,
) -> AugmentedProtocol:
    """Derive the Rule (a)/(b) extension of ``spec`` for ``n_sites`` sites."""
    analysis = analysis if analysis is not None else analyze(spec, n_sites)
    timeout_action = rule_a(analysis)
    undeliverable_action, ambiguous = rule_b(analysis, timeout_action)
    return AugmentedProtocol(
        spec=spec,
        n_sites=n_sites,
        timeout_action=timeout_action,
        undeliverable_action=undeliverable_action,
        ambiguous=ambiguous,
    )
