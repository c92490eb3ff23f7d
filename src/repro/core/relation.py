"""The local-step relation of a commit protocol: what one site may do next.

Section 2's model: a global transition is exactly one local transition, in
which a site reads messages addressed to it, writes messages and moves to
its next local state.  :func:`compile_relation` turns a
:class:`~repro.core.fsa.CommitProtocolSpec` plus the optional Rule (a)/(b)
tables of an :class:`~repro.core.rules.AugmentedProtocol` into one
:class:`LocalTable` per role and local state: the protocol :class:`Step` s
leaving it and its timeout / undeliverable-message :class:`Resolution` s.
:func:`satisfying_senders` says which senders in an inbox satisfy a read.

Two interpreters execute the table and nothing else:
:class:`~repro.protocols.fsa_role.FSARole` under the simulator's clock
(first enabled choice, then keep stepping until none is enabled) and the
explorer of :mod:`repro.core.reachability` (every choice, as successor
edges).  Recipients are resolved to "the master" or "the other slaves", so
one table serves every site numbering.  This module sits below
:mod:`repro.core.rules` (which imports the explorer through the
concurrency analysis), so it reads the augmentation duck-typed.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Collection, Mapping, Optional

from repro.core import messages as msg
from repro.core.fsa import (
    ALL_SLAVES,
    ANY_SLAVE,
    CommitProtocolSpec,
    EACH_SLAVE,
    MASTER,
    MASTER_ROLE,
    OPERATOR,
    RoleAutomaton,
    SLAVE_ROLE,
    Transition,
)

OPERATOR_SITE = 0  # pseudo-site the external "request" message comes from

#: Reads that move a slave into its prepared (journalled) state.
_PREPARE_READS = frozenset({msg.PREPARE, msg.PRE_COMMIT})

#: A message kind and whether it goes to the master (else every other slave).
Send = tuple[str, bool]


@dataclass(frozen=True)
class Step:
    """One protocol transition, compiled.

    Attributes:
        transition: the catalog transition (edge labels and traces use it).
        kind: the message kind the step reads.
        source: who the read waits for (the :mod:`repro.core.fsa` read
            sources; only :func:`satisfying_senders` interprets it).
        vote: ``"yes"`` / ``"no"`` for a slave's vote step (the vote it
            sends), ``None`` otherwise.
        target: the local state the step moves to.
        sends: what the step writes, recipients resolved (operator sends
            dropped).
        decision: ``"commit"`` / ``"abort"`` when ``target`` is final.
        votes_yes: ``target`` witnesses a yes vote of this site.
        journals_prepare: a slave step entering its prepared state, which
            the database journals before answering.
    """

    transition: Transition
    kind: str
    source: str
    vote: Optional[str]
    target: str
    sends: tuple[Send, ...]
    decision: Optional[str]
    votes_yes: bool
    journals_prepare: bool


@dataclass(frozen=True)
class Resolution:
    """A Rule (a) timeout or Rule (b) undeliverable-message decision.

    Attributes:
        decision: ``"commit"`` or ``"abort"``.
        target: the canonical final state the decision stands for.
        sends: the master's decision broadcast to every slave (empty for a
            slave, which decides silently).
        votes_yes: ``target`` witnesses a yes vote of this site.
    """

    decision: str
    target: str
    sends: tuple[Send, ...]
    votes_yes: bool


@dataclass(frozen=True)
class LocalTable:
    """Everything a site in one local state may do.

    ``timed`` marks the states of an augmented role that run the state
    timer: every non-final state, whether or not Rule (a) assigns it a
    decision.  ``timeout`` / ``undeliverable`` are ``None`` in final states
    and wherever the augmentation assigns nothing.
    """

    steps: tuple[Step, ...]
    final: bool
    timed: bool
    timeout: Optional[Resolution]
    undeliverable: Optional[Resolution]


@dataclass(frozen=True)
class ProtocolRelation:
    """The compiled relation of one protocol: per role, state -> table."""

    master: Mapping[str, LocalTable]
    slave: Mapping[str, LocalTable]

    def role(self, role: str) -> Mapping[str, LocalTable]:
        """The tables of ``role`` (``"master"`` or ``"slave"``)."""
        return self.master if role == MASTER_ROLE else self.slave


def satisfying_senders(
    source: str, present: Collection[int], master: int, peers: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Which senders present in an inbox satisfy a read, in a fixed order.

    ``present`` holds the senders of the inbox's messages of the read's
    kind and ``peers`` every slave but the reader.  Each returned tuple is
    one way to satisfy the read, naming the senders one message each is
    consumed from: the master (or the operator's request) alone; each slave
    alone, ascending (``any_slave``); every peer at once (``each_slave``).
    """
    if source == MASTER:
        return ((master,),) if master in present else ()
    if source == EACH_SLAVE:
        for peer in peers:
            if peer not in present:
                return ()
        return (peers,)
    if source == ANY_SLAVE:
        if not present:
            return ()
        return tuple(
            (sender,)
            for sender in sorted(present)
            if sender != master and sender != OPERATOR_SITE
        )
    if source == OPERATOR:
        return ((OPERATOR_SITE,),) if OPERATOR_SITE in present else ()
    raise ValueError(f"unknown read source {source!r}")


def _step(automaton: RoleAutomaton, transition: Transition) -> Step:
    read, target = transition.read, transition.target
    kinds = {send.kind for send in transition.sends}
    if target in automaton.commit_states:
        decision: Optional[str] = msg.COMMIT
    elif target in automaton.abort_states:
        decision = msg.ABORT
    else:
        decision = None
    return Step(
        transition=transition,
        kind=read.kind,
        source=read.source,
        vote="yes" if msg.YES in kinds else "no" if msg.NO in kinds else None,
        target=target,
        sends=tuple(
            (send.kind, send.target == MASTER)
            for send in transition.sends
            if send.target in (MASTER, ALL_SLAVES)
        ),
        decision=decision,
        votes_yes=target in automaton.yes_vote_states,
        journals_prepare=automaton.role == SLAVE_ROLE and read.kind in _PREPARE_READS,
    )


def _resolution(
    automaton: RoleAutomaton, actions: Mapping[Any, Any], state: str
) -> Optional[Resolution]:
    action = actions.get((automaton.role, state))
    if action is None:
        return None
    decision = msg.COMMIT if getattr(action, "value", action) == "commit" else msg.ABORT
    finals = automaton.commit_states if decision == msg.COMMIT else automaton.abort_states
    target = min(finals)
    return Resolution(
        decision=decision,
        target=target,
        sends=((decision, False),) if automaton.role == MASTER_ROLE else (),
        votes_yes=target in automaton.yes_vote_states,
    )


def _role_tables(
    automaton: RoleAutomaton, augmentation: Optional[Any]
) -> Mapping[str, LocalTable]:
    tables = {}
    for state in sorted(automaton.states):
        final = automaton.is_final(state)
        timed = augmentation is not None and not final
        timeout = undeliverable = None
        if timed:
            timeout = _resolution(automaton, augmentation.timeout_action, state)
            undeliverable = _resolution(automaton, augmentation.undeliverable_action, state)
        tables[state] = LocalTable(
            steps=tuple(_step(automaton, t) for t in automaton.transitions_from(state)),
            final=final,
            timed=timed,
            timeout=timeout,
            undeliverable=undeliverable,
        )
    return MappingProxyType(tables)


def compile_relation(
    spec: CommitProtocolSpec, augmentation: Optional[Any] = None
) -> ProtocolRelation:
    """Compile ``spec`` (plus optional Rule (a)/(b) tables) into its relation."""
    return ProtocolRelation(
        master=_role_tables(spec.master, augmentation),
        slave=_role_tables(spec.slave, augmentation),
    )
