"""The local-step relation of a commit protocol: what one site may do next.

Section 2's model: a global transition is exactly one local transition, in
which a site reads messages addressed to it, writes messages and moves to
its next local state.  The relation holds one :class:`LocalTable` per role
and local state, built by one of two constructions:

* :func:`compile_relation` -- a :class:`~repro.core.fsa.CommitProtocolSpec`
  plus the optional Rule (a)/(b) tables of an
  :class:`~repro.core.rules.AugmentedProtocol`: the protocol :class:`Step` s
  leaving each state and its timeout / undeliverable-message
  :class:`Resolution` s;
* :func:`compile_termination` -- Theorem 10's construction: the spec's
  steps plus the Section 5.3 termination protocol, built from the spec's
  :class:`~repro.core.generalize.TerminationPlan` (the promotion message
  ``m`` and the states it joins), with the Fig. 8 ``w -> c`` relay and,
  optionally, the Section 6 transient rule.  Terminating 3PC and
  terminating quorum commit differ only in the spec they start from.

The termination protocol needs more than an automaton ("relation v2"):
per-site variables that guards read and writes update, named
:class:`Timer` s whose intervals come from
:class:`~repro.core.termination.TerminationTimers`, :class:`Action` s keyed
by an expiring timer, a bounced message's kind or an arriving message's
kind (probe reads), reads from any site and sends to every other site.

A :class:`MoveTable` compiles it for ``n`` sites, and two drivers read its
moves and nothing else: :class:`~repro.protocols.fsa_role.FSARole` under the
simulator's clock (the first enabled move, until none is; every entry) and
the explorer of :mod:`repro.core.reachability` (every move, as successor
edges; steps and resolutions of an :attr:`~ProtocolRelation.untimed`
relation only).  Recipients resolve to "the master", "the other slaves" or
"every other site" and senders to positions, so one table serves every site
numbering.  This module sits below :mod:`repro.core.rules` and
:mod:`repro.core.generalize` (which import the explorer through the
concurrency analysis), so it reads the augmentation and the termination
plan duck-typed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import count
from types import MappingProxyType
from typing import Any, Collection, Mapping, NamedTuple, Optional

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
    role_automaton,
)
from repro.core.termination import TerminationOutcome, master_decision

OPERATOR_SITE = 0  # pseudo-site the external "request" message comes from

#: Read source of a relayed decision: one message from any site, the master
#: or a slave acting for its partition.
ANY_SITE = "any_site"

#: Reads that move a slave into its prepared (journalled) state.
_PREPARE_READS = frozenset({msg.PREPARE, msg.PRE_COMMIT})

#: Send recipients: the master, every other slave, every other site.
TO_MASTER, TO_SLAVES, TO_OTHERS = True, False, None

#: A message kind and its recipients (one of the ``TO_*`` values).
Send = tuple[str, Optional[bool]]


class Timer(NamedTuple):
    """A named timer and the :class:`~repro.core.termination.TerminationTimers`
    interval it runs for."""

    name: str
    duration: str


#: The state timer of a Rule (a)-augmented role; the termination protocol's
#: timers (Figs. 5-7 and 9).
STATE_TIMER, PHASE = "state-timeout", "phase-timeout"
PROBE_WINDOW = Timer("probe-window", "probe_window")
WAIT_IN_W = Timer("wait-in-w", "wait_in_w")
WAIT_IN_P = Timer("wait-in-p", "wait_in_p")
_STATE_TIMEOUT = {MASTER_ROLE: "master_vote_timeout", SLAVE_ROLE: "slave_timeout"}

#: The events a termination action is keyed by, with the timer's name or the
#: message's kind: a timer expiring, a message bouncing back, a message
#: arriving (consumed by the action whether or not the site has decided).
TIMEOUT, UNDELIVERABLE, ARRIVAL = "timeout", "undeliverable", "arrival"

#: The per-site variables: ``N`` (the slaves, constant), the master's sets
#: ``UD`` (promotion bounced) and ``PB`` (probed inside the window) and its
#: probe-window flag, and a slave's timed-out-in-w flag.  A guard
#: ``(name, value)`` requires the variable's truth value; ``NONE_CROSSED``
#: is Lemma 4's ``N - UD = PB``.  A write ``(name, value)`` assigns, or adds
#: the event's site (a bounce's intended destination, a prober) for ``SITE``.
N, UD, PB, WINDOW, TIMED_OUT_IN_W = "N", "UD", "PB", "window", "timed-out-in-w"
NONE_CROSSED, SITE = "N-UD=PB", "site"

#: A trace note: its category and ``(detail field, datum)`` pairs, the datum
#: ``SITE``, ``"state"``, ``"decision"`` or a set variable (noted sorted).
Note = tuple[str, tuple[tuple[str, str], ...]]


def site_variables(slaves: tuple[int, ...]) -> dict[str, Any]:
    """A site's variables, initially."""
    return {N: slaves, UD: set(), PB: set(), WINDOW: False, TIMED_OUT_IN_W: False}


def holds(guard: tuple[str, bool], variables: Mapping[str, Any]) -> bool:
    """Whether ``guard`` holds over ``variables``."""
    name, value = guard
    if name == NONE_CROSSED:
        verdict = master_decision(variables[N], variables[UD], variables[PB])
        return (verdict.outcome is TerminationOutcome.ABORT) is value
    return bool(variables[name]) is value


def write(writes: tuple[tuple[str, Any], ...], variables: dict[str, Any], site: int) -> None:
    """Apply ``writes`` to ``variables``; ``site`` is the event's site."""
    for name, value in writes:
        if value == SITE:
            variables[name].add(site)
        else:
            variables[name] = value


@dataclass(frozen=True, kw_only=True)
class Action:
    """What a site does when one relation entry fires.

    Effects apply in this order: ``writes``, the prepare journal, ``sends``,
    the move to ``target`` (``None``: stay), ``cancels`` then ``arms`` of
    named timers, then ``decision`` -- or, deciding nothing, ``note`` and
    the new state's timer.  A deciding action notes its verdict first.
    ``label`` names the entry; traces give it as the reason.
    """

    label: str
    guard: Optional[tuple[str, bool]] = None
    writes: tuple[tuple[str, Any], ...] = ()
    journals_prepare: bool = False
    sends: tuple[Send, ...] = ()
    target: Optional[str] = None
    cancels: tuple[str, ...] = ()
    arms: tuple[Timer, ...] = ()
    decision: Optional[str] = None
    votes_yes: bool = False  # ``target`` witnesses a yes vote of this site
    note: Optional[Note] = None
    vote: Optional[str] = None  # the site's vote a vote step requires


@dataclass(frozen=True, kw_only=True)
class Step(Action):
    """An action taken by reading messages: one protocol transition, compiled.

    Attributes:
        transition: the catalog transition (edge labels and traces use it);
            ``None`` for the reads the termination construction adds.
        kind: the message kind the step reads.
        source: who the read waits for (the :mod:`repro.core.fsa` read
            sources or :data:`ANY_SITE`; only :func:`satisfying_senders`
            interprets it).

    A vote step's ``vote`` is ``"yes"`` or ``"no"``.
    """

    transition: Optional[Transition]
    kind: str
    source: str


@dataclass(frozen=True)
class Resolution:
    """A Rule (a) timeout or Rule (b) undeliverable-message decision.

    The site decides, then sends, and stays in its local state.

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

    ``timer`` is armed on entering the state (every non-final state of an
    augmented or terminating role has one).  ``timeout`` / ``undeliverable``
    are the Rule (a)/(b) decisions, ``None`` in final states and wherever
    the augmentation assigns nothing.  ``actions`` holds the termination
    protocol's entries per ``(event, timer name or message kind)``; of each
    key's actions the first whose guard holds fires.
    """

    steps: tuple[Step, ...]
    final: bool
    timer: Optional[Timer] = None
    timeout: Optional[Resolution] = None
    undeliverable: Optional[Resolution] = None
    actions: Mapping[tuple[str, str], tuple[Action, ...]] = field(
        default_factory=lambda: MappingProxyType({})
    )


@dataclass(frozen=True)
class ProtocolRelation:
    """The compiled relation of one protocol: per role, state -> table.

    ``refusal`` is what a master that votes no does before its first step
    (``None`` when that vote is itself a step).
    """

    master: Mapping[str, LocalTable]
    slave: Mapping[str, LocalTable]
    refusal: Optional[Resolution] = None
    #: No entry uses a named timer or a site variable: the relations the
    #: untimed explorer enumerates soundly (derived from the tables).
    untimed: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        tables = (*self.master.values(), *self.slave.values())
        untimed = not any(t.actions or any(s.guard for s in t.steps) for t in tables)
        object.__setattr__(self, "untimed", untimed)

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
    alone, ascending (``any_slave``); every peer at once (``each_slave``);
    each site alone, ascending (``any_site``).
    """
    if source == MASTER:
        return ((master,),) if master in present else ()
    if source == EACH_SLAVE:
        return (peers,) if all(peer in present for peer in peers) else ()
    if source == ANY_SLAVE:
        return tuple((s,) for s in sorted(present) if s != master and s != OPERATOR_SITE)
    if source == OPERATOR:
        return ((OPERATOR_SITE,),) if OPERATOR_SITE in present else ()
    if source == ANY_SITE:
        return tuple((s,) for s in sorted(present) if s != OPERATOR_SITE)
    raise ValueError(f"unknown read source {source!r}")


#: A compiled move: a step and the inbox bits it consumes.
Move = tuple[Step, int]


class MoveTable:
    """A relation compiled for ``n_sites`` sites: the moves an inbox enables.

    An inbox is an int with bit ``offsets[role][kind] + position`` set while
    a message of ``kind`` waits from the sender at ``position``: 0 is the
    operator, 1 the master, 2..n the slaves in ascending id order.  Only the
    kinds a role reads in some state have bits.  :meth:`moves` lists what a
    reader at ``position`` in ``state`` may take over ``inbox``: steps in
    declaration order, each read satisfied in :func:`satisfying_senders`
    order.  Guards and votes are left to the driver.  The moves depend on
    (position, state, inbox) alone, so they are memoised, process-wide.
    """

    def __init__(self, relation: ProtocolRelation, n_sites: int) -> None:
        self.relation = relation
        self._width = width = n_sites + 1
        #: Per role: each read kind's inbox bit offset, and whether an entry
        #: records whom a bounce was for (the terminating master's ``UD``).
        self.offsets, self.records_bounces = {}, {}
        for role in (MASTER_ROLE, SLAVE_ROLE):
            tables = relation.role(role).values()
            kinds = sorted({step.kind for table in tables for step in table.steps})
            self.offsets[role] = {kind: k * width for k, kind in enumerate(kinds)}
            self.records_bounces[role] = any(
                value == SITE for table in tables for (event, _), actions in table.actions.items()
                if event == UNDELIVERABLE for action in actions for _, value in action.writes
            )
        #: Per position, every slave but that site.
        self.peers = [tuple(p for p in range(2, width) if p != site) for site in range(width)]
        self._roles = [MASTER_ROLE if site == 1 else SLAVE_ROLE for site in range(width)]
        self._memo: list[dict[str, dict[int, tuple[Move, ...]]]] = [
            {state: {} for state in relation.role(role)} for role in self._roles
        ]
        self._positions: dict[tuple, dict[int, int]] = {}

    def positions(self, master: int, participants: tuple[int, ...]) -> dict[int, int]:
        """Each sender's position among ``participants`` (shared; do not mutate)."""
        key = (master, participants)
        positions = self._positions.get(key)
        if positions is None:
            slaves = sorted(site for site in participants if site != master)
            positions = self._positions[key] = dict(zip((OPERATOR_SITE, master, *slaves), count()))
        return positions

    def moves(self, position: int, state: str, inbox: int) -> tuple[Move, ...]:
        """The moves of the site at ``position`` in ``state`` over ``inbox``."""
        memo = self._memo[position][state]
        moves = memo.get(inbox)
        if moves is None:
            moves = memo[inbox] = self._compile(position, state, inbox)
        return moves

    def _compile(self, position: int, state: str, inbox: int) -> tuple[Move, ...]:
        role = self._roles[position]
        moves = []
        for step in self.relation.role(role)[state].steps:
            offset = self.offsets[role][step.kind]
            present = [p for p in range(self._width) if inbox >> (offset + p) & 1]
            for senders in satisfying_senders(step.source, present, 1, self.peers[position]):
                moves.append((step, sum(1 << (offset + p) for p in senders)))
        return tuple(moves)


def _decision_at(automaton: RoleAutomaton, state: str) -> Optional[str]:
    if state in automaton.commit_states:
        return msg.COMMIT
    if state in automaton.abort_states:
        return msg.ABORT
    return None


def _step(automaton: RoleAutomaton, transition: Transition) -> Step:
    read, target = transition.read, transition.target
    kinds = {send.kind for send in transition.sends}
    vote = "yes" if msg.YES in kinds else "no" if msg.NO in kinds else None
    return Step(
        label=f"voted {vote}" if vote else f"received {read.kind}",
        transition=transition,
        kind=read.kind,
        source=read.source,
        vote=vote,
        target=target,
        sends=tuple(
            (send.kind, send.target == MASTER)
            for send in transition.sends
            if send.target in (MASTER, ALL_SLAVES)
        ),
        decision=_decision_at(automaton, target),
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
        sends=((decision, TO_SLAVES),) if automaton.role == MASTER_ROLE else (),
        votes_yes=target in automaton.yes_vote_states,
    )


def _role_tables(
    automaton: RoleAutomaton, augmentation: Optional[Any]
) -> Mapping[str, LocalTable]:
    tables = {}
    for state in sorted(automaton.states):
        final = automaton.is_final(state)
        timer = timeout = undeliverable = None
        if augmentation is not None and not final:
            timer = Timer(STATE_TIMER, _STATE_TIMEOUT[automaton.role])
            timeout = _resolution(automaton, augmentation.timeout_action, state)
            undeliverable = _resolution(automaton, augmentation.undeliverable_action, state)
        tables[state] = LocalTable(
            steps=tuple(_step(automaton, t) for t in automaton.transitions_from(state)),
            final=final,
            timer=timer,
            timeout=timeout,
            undeliverable=undeliverable,
        )
    return MappingProxyType(tables)


def compile_relation(
    spec: CommitProtocolSpec, augmentation: Optional[Any] = None
) -> ProtocolRelation:
    """Compile ``spec`` (plus optional Rule (a)/(b) tables) into its relation."""
    abort = min(spec.master.abort_states)
    return ProtocolRelation(
        master=_role_tables(spec.master, augmentation),
        slave=_role_tables(spec.slave, augmentation),
        refusal=Resolution(
            decision=msg.ABORT, target=abort, sends=((msg.ABORT, TO_SLAVES),), votes_yes=False
        ),
    )


# ----------------------------------------------------------------------
# Theorem 10: the Section 5.3 termination protocol as relation entries
# ----------------------------------------------------------------------
def _named_as_in_section_5(spec: CommitProtocolSpec, plan: Any) -> CommitProtocolSpec:
    """``spec`` with the states ``m`` joins named as Figs. 6-9 name them:
    ``w`` (left) and ``p`` (entered); quorum commit's ``pc`` becomes ``p``."""
    names = {plan.noncommittable_state: msg.WAIT, plan.committable_state: msg.PREPARED}

    def renamed(automaton: RoleAutomaton) -> RoleAutomaton:
        state = {s: names.get(s, s) for s in automaton.states}
        if len(set(state.values())) < len(state):
            raise ValueError(f"{spec.name}: naming {names} merges two states")
        return role_automaton(
            automaton.role,
            state[automaton.initial],
            [Transition(state[t.source], t.read, t.sends, state[t.target])
             for t in automaton.transitions],
            commit_states=[state[s] for s in automaton.commit_states],
            abort_states=[state[s] for s in automaton.abort_states],
            yes_vote_states=[state[s] for s in automaton.yes_vote_states],
            extra_states=state.values(),
        )

    return dataclasses.replace(spec, master=renamed(spec.master), slave=renamed(spec.slave))


def _relay(kind: str, target: Optional[str], label: str) -> Step:
    """Read the decision ``kind`` from any site (and move to ``target``)."""
    return Step(label=label, transition=None, kind=kind, source=ANY_SITE, target=target,
                decision=kind, votes_yes=target == msg.COMMITTED)


def _tables(
    base: Mapping[str, LocalTable], steps: dict, actions: dict, timer: Timer
) -> Mapping[str, LocalTable]:
    return MappingProxyType({
        state: LocalTable(
            steps=steps.get(state, table.steps),
            final=table.final,
            timer=None if table.final else timer,
            actions=MappingProxyType(actions.get(state, {})),
        )
        for state, table in base.items()
    })


def compile_termination(
    spec: CommitProtocolSpec, plan: Any, *, transient_rule: bool = True
) -> ProtocolRelation:
    """Theorem 10: ``spec``'s relation plus the Section 5.3 termination protocol.

    ``plan`` is the spec's :class:`~repro.core.generalize.TerminationPlan`;
    every entry is built around its promotion message ``m`` (and its
    acknowledgement), and the states ``m`` joins are named ``w`` and ``p``
    as in Figs. 6-9, so the construction is the same for every protocol the
    theorem applies to.  ``transient_rule`` adds the Section 6 rule.
    """
    spec = _named_as_in_section_5(spec, plan)
    base = compile_relation(spec)
    m, ack = plan.promotion_message, plan.acknowledgement
    q, w, p = spec.master.initial, msg.WAIT, msg.PREPARED
    c, a = msg.COMMITTED, msg.ABORTED

    def everyone(decision: str, label: str, **extra: Any) -> dict[str, Any]:
        """The master decides and tells every slave."""
        target = c if decision == msg.COMMIT else a
        sends = ((decision, TO_SLAVES),)
        return dict(label=label, sends=sends, target=target, decision=decision, **extra)

    def lead(decision: str, label: str) -> Action:
        """A slave decides for its partition and tells every other site."""
        return Action(label=label, sends=((decision, TO_OTHERS),), decision=decision)

    # Fig. 6: the master.
    relays = (_relay(msg.COMMIT, None, "commit relayed"), _relay(msg.ABORT, None, "abort relayed"))
    closed = (
        "probe-window-closed", (("undeliverable", UD), ("probed", PB), ("outcome", "decision"))
    )
    probe = (
        Action(label="probe inside the window: add to PB", guard=(WINDOW, True),
               writes=((PB, SITE),)),
        Action(label="late probe: ignored", note=("late-probe-ignored", (("prober", SITE),))),
    )
    master = base.master
    master_steps = {
        # The master votes as it reads the request: a no aborts everyone.
        q: (Step(transition=None, kind=msg.REQUEST, source=OPERATOR, vote="no",
                 **everyone(msg.ABORT, "voted no: abort everyone")), *master[q].steps),
        # A lone master hears no vote: it times out instead of promoting.
        w: (*(dataclasses.replace(s, journals_prepare=True, guard=(N, True))
              if s.target == p else s for s in master[w].steps), *relays),
        # While the probe window is open, only Lemma 4 decides.
        p: (*(dataclasses.replace(s, guard=(WINDOW, False)) for s in master[p].steps), *relays),
    }
    master_actions = {state: {(ARRIVAL, msg.PROBE): probe} for state in master}
    master_actions[w].update({
        (TIMEOUT, PHASE): (Action(**everyone(msg.ABORT, f"timeout in {w}: abort everyone")),),
        (UNDELIVERABLE, msg.XACT): (Action(**everyone(msg.ABORT, "UD(xact): abort everyone")),),
    })
    master_actions[p].update({
        (TIMEOUT, PHASE): (Action(**everyone(msg.COMMIT, f"timeout in {p}: commit everyone")),),
        (UNDELIVERABLE, m): (
            Action(label=f"UD({m}) inside the window: add to UD", guard=(WINDOW, True),
                   writes=((UD, SITE),)),
            Action(label=f"first UD({m}): open the 5T probe window",
                   writes=((WINDOW, True), (UD, SITE)), cancels=(PHASE,), arms=(PROBE_WINDOW,),
                   note=("probe-window-open", (("first_undeliverable", SITE),))),
        ),
        (TIMEOUT, PROBE_WINDOW.name): (
            Action(**everyone(msg.ABORT, "window closed, N - UD = PB: abort everyone",
                              guard=(NONE_CROSSED, True), writes=((WINDOW, False),), note=closed)),
            Action(**everyone(msg.COMMIT, "window closed, N - UD != PB: commit everyone",
                              writes=((WINDOW, False),), note=closed)),
        ),
    })

    # Figs. 7-9: a slave reads decisions from any site, the relayed abort in
    # every non-final state and, by Fig. 8, a relayed commit while in w.
    slave, slave_steps = base.slave, {}
    for state in (spec.slave.initial, w, p):
        steps = tuple(
            dataclasses.replace(s, source=ANY_SITE) if s.kind in (msg.COMMIT, msg.ABORT) else s
            for s in slave[state].steps
        )
        if all(s.kind != msg.ABORT for s in steps):
            steps += (_relay(msg.ABORT, a, "received abort"),)
        if state == w:
            steps += (_relay(msg.COMMIT, c, f"commit received in {w} (Fig. 8)"),)
        slave_steps[state] = steps
    slave_actions = {
        spec.slave.initial: {
            (TIMEOUT, PHASE): (Action(label="timeout: abort", decision=msg.ABORT),),
        },
        w: {
            (TIMEOUT, PHASE): (Action(label=f"timeout in {w}: wait 6T for a decision",
                                      writes=((TIMED_OUT_IN_W, True),), arms=(WAIT_IN_W,),
                                      note=("timed-out-in-w", ())),),
            (TIMEOUT, WAIT_IN_W.name): (Action(label="no decision within 6T: abort",
                                               decision=msg.ABORT),),
            (UNDELIVERABLE, msg.YES): (lead(msg.ABORT, "own yes returned: abort everyone"),),
            (ARRIVAL, m): (Action(label=f"{m} after timing out: ignored",
                                  guard=(TIMED_OUT_IN_W, True),
                                  note=("late-prepare-ignored", (("state", "state"),))),),
        },
        p: {
            (TIMEOUT, PHASE): (Action(label=f"timeout in {p}: probe the master",
                                      sends=((msg.PROBE, TO_MASTER),),
                                      arms=(WAIT_IN_P,) if transient_rule else (),
                                      note=("timed-out-in-p", ())),),
            (UNDELIVERABLE, ack): (lead(msg.COMMIT, f"own {ack} returned: commit everyone"),),
            (UNDELIVERABLE, msg.PROBE): (lead(msg.COMMIT, "own probe returned: commit everyone"),),
        },
    }
    if transient_rule:
        # Section 6: only case 3.2.2.2 waits this long, and there every
        # other site has committed.
        slave_actions[p][TIMEOUT, WAIT_IN_P.name] = (
            Action(label="transient rule: 5T after probing, commit", decision=msg.COMMIT),
        )
    return ProtocolRelation(
        master=_tables(master, master_steps, master_actions, Timer(PHASE, "master_vote_timeout")),
        slave=_tables(slave, slave_steps, slave_actions, Timer(PHASE, "slave_timeout")),
    )
