"""Finite-state-automaton model of commit protocols.

Section 2 of the paper recalls Skeen & Stonebraker's formal model:
"Transaction execution at each site is modelled as a finite state automaton
(FSA), with the network serving as a common input/output tape to all sites."
A global state consists of the vector of local states plus the outstanding
messages; a global transition is exactly one local transition, in which a
site reads a non-empty string of messages addressed to it, writes a string of
messages, and moves to its next local state.

The classes below describe a commit protocol in that model.  Because the
protocols studied in the paper are *master/slave* protocols in which all
slaves run the same automaton, a protocol is specified by two role automata
(master, slave); the reachability layer instantiates them for ``n`` sites.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

# Sources / targets used by read and send specifications.
OPERATOR = "operator"      # the external user submitting / being asked about the txn
MASTER = "master"          # the coordinating site (site 1 in the paper)
ANY_SLAVE = "any_slave"    # one message from some slave suffices
EACH_SLAVE = "each_slave"  # one message from every slave is required
ALL_SLAVES = "all_slaves"  # sends: one copy to every slave

MASTER_ROLE = "master"
SLAVE_ROLE = "slave"


class ProtocolSpecError(ValueError):
    """Raised for structurally invalid protocol specifications."""


@dataclass(frozen=True)
class ReadSpec:
    """What a transition consumes from the network tape.

    Attributes:
        kind: message kind (see :mod:`repro.core.messages`).
        source: ``"operator"``, ``"master"``, ``"any_slave"`` or
            ``"each_slave"``.
    """

    kind: str
    source: str

    def __post_init__(self) -> None:
        if self.source not in (OPERATOR, MASTER, ANY_SLAVE, EACH_SLAVE):
            raise ProtocolSpecError(f"unknown read source: {self.source!r}")
        # Interned kinds make the move table's kind-offset lookups and kind
        # comparisons pointer-identity checks.
        object.__setattr__(self, "kind", sys.intern(self.kind))

    def __str__(self) -> str:
        return f"{self.kind}<-{self.source}"


@dataclass(frozen=True)
class SendSpec:
    """What a transition writes onto the network tape.

    Attributes:
        kind: message kind.
        target: ``"master"``, ``"all_slaves"`` or ``"operator"``.
    """

    kind: str
    target: str

    def __post_init__(self) -> None:
        if self.target not in (OPERATOR, MASTER, ALL_SLAVES):
            raise ProtocolSpecError(f"unknown send target: {self.target!r}")
        object.__setattr__(self, "kind", sys.intern(self.kind))

    def __str__(self) -> str:
        return f"{self.kind}->{self.target}"


@dataclass(frozen=True)
class Transition:
    """One local state transition of a role automaton."""

    source: str
    read: ReadSpec
    sends: tuple[SendSpec, ...]
    target: str

    def __post_init__(self) -> None:
        # State names are compared and used as dict keys on every delivery;
        # interning makes those comparisons pointer-identity checks.
        object.__setattr__(self, "source", sys.intern(self.source))
        object.__setattr__(self, "target", sys.intern(self.target))

    def __str__(self) -> str:
        sends = ", ".join(str(send) for send in self.sends) or "-"
        return f"{self.source} --[{self.read} / {sends}]--> {self.target}"


@dataclass(frozen=True)
class RoleAutomaton:
    """The automaton run by either the master or every slave.

    Attributes:
        role: ``"master"`` or ``"slave"``.
        initial: initial local state.
        states: every local state of the role.
        transitions: the protocol's transitions for this role.
        commit_states: final states meaning the transaction committed here.
        abort_states: final states meaning the transaction aborted here.
        yes_vote_states: states whose occupancy implies this site has voted
            yes on committing the transaction (used to *verify* the
            committable-state classification of Section 3 against the
            reachable global states).
    """

    role: str
    initial: str
    states: frozenset[str]
    transitions: tuple[Transition, ...]
    commit_states: frozenset[str]
    abort_states: frozenset[str]
    yes_vote_states: frozenset[str]

    def __post_init__(self) -> None:
        if self.role not in (MASTER_ROLE, SLAVE_ROLE):
            raise ProtocolSpecError(f"unknown role: {self.role!r}")
        if self.initial not in self.states:
            raise ProtocolSpecError(f"initial state {self.initial!r} not in states")
        for named in (self.commit_states, self.abort_states, self.yes_vote_states):
            unknown = named - self.states
            if unknown:
                raise ProtocolSpecError(f"unknown states referenced: {sorted(unknown)}")
        if self.commit_states & self.abort_states:
            raise ProtocolSpecError("a state cannot be both a commit and an abort state")
        for transition in self.transitions:
            if transition.source not in self.states or transition.target not in self.states:
                raise ProtocolSpecError(f"transition uses unknown state: {transition}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def final_states(self) -> frozenset[str]:
        """Commit and abort states together."""
        return self.commit_states | self.abort_states

    def is_final(self, state: str) -> bool:
        """True when ``state`` is a commit or abort state."""
        return state in self.final_states

    def transitions_from(self, state: str) -> tuple[Transition, ...]:
        """All transitions leaving ``state``."""
        return tuple(t for t in self.transitions if t.source == state)

    def transitions_reading(self, kind: str) -> tuple[Transition, ...]:
        """All transitions that read a message of ``kind``."""
        return tuple(t for t in self.transitions if t.read.kind == kind)

    def transitions_sending(self, kind: str) -> tuple[Transition, ...]:
        """All transitions that send a message of ``kind``."""
        return tuple(t for t in self.transitions if any(s.kind == kind for s in t.sends))

    def successors(self, state: str) -> frozenset[str]:
        """States reachable from ``state`` in one transition."""
        return frozenset(t.target for t in self.transitions_from(state))

    def adjacent_to_commit(self) -> frozenset[str]:
        """States with a direct transition into a commit state."""
        return frozenset(
            t.source for t in self.transitions if t.target in self.commit_states
        )


@dataclass(frozen=True)
class CommitProtocolSpec:
    """A complete master/slave commit protocol in the formal model."""

    name: str
    master: RoleAutomaton
    slave: RoleAutomaton
    description: str = ""

    def __post_init__(self) -> None:
        if self.master.role != MASTER_ROLE:
            raise ProtocolSpecError("master automaton must have role 'master'")
        if self.slave.role != SLAVE_ROLE:
            raise ProtocolSpecError("slave automaton must have role 'slave'")

    def automaton(self, role: str) -> RoleAutomaton:
        """The automaton for ``role`` (``"master"`` or ``"slave"``)."""
        if role == MASTER_ROLE:
            return self.master
        if role == SLAVE_ROLE:
            return self.slave
        raise ProtocolSpecError(f"unknown role: {role!r}")

    def local_states(self) -> tuple[tuple[str, str], ...]:
        """Every (role, state) pair of the protocol."""
        pairs = [(MASTER_ROLE, state) for state in sorted(self.master.states)]
        pairs.extend((SLAVE_ROLE, state) for state in sorted(self.slave.states))
        return tuple(pairs)

    def message_kinds(self) -> frozenset[str]:
        """Every message kind read or written by either role."""
        kinds: set[str] = set()
        for automaton in (self.master, self.slave):
            for transition in automaton.transitions:
                kinds.add(transition.read.kind)
                kinds.update(send.kind for send in transition.sends)
        return frozenset(kinds)

    def __str__(self) -> str:
        return f"CommitProtocolSpec({self.name})"


def role_automaton(
    role: str,
    initial: str,
    transitions: Iterable[Transition],
    *,
    commit_states: Iterable[str],
    abort_states: Iterable[str],
    yes_vote_states: Iterable[str],
    extra_states: Iterable[str] = (),
) -> RoleAutomaton:
    """Build a :class:`RoleAutomaton`, inferring the state set from transitions."""
    transitions = tuple(transitions)
    states: set[str] = set(extra_states)
    states.add(initial)
    for transition in transitions:
        states.add(transition.source)
        states.add(transition.target)
    states.update(commit_states)
    states.update(abort_states)
    return RoleAutomaton(
        role=role,
        initial=initial,
        states=frozenset(states),
        transitions=transitions,
        commit_states=frozenset(commit_states),
        abort_states=frozenset(abort_states),
        yes_vote_states=frozenset(yes_vote_states),
    )
