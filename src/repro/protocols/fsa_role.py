"""Generic roles that execute a formal protocol specification.

The baseline protocols (2PC, extended 2PC, 3PC, the naive extended 3PC and
the quorum skeleton) differ only in their finite-state automata and in the
timeout / undeliverable-message augmentation applied to them, so they share
one implementation: a coordinator role and a participant role that *execute*
a :class:`~repro.core.fsa.CommitProtocolSpec`, optionally consulting an
:class:`~repro.core.rules.AugmentedProtocol` when a timer fires or a bounced
message arrives.  Both come from the shared, immutable
:class:`~repro.protocols.plan.ProtocolPlan`; a role builds only its own state.

The paper's own termination protocol is deliberately *not* expressed this
way -- it needs probe messages, the UD/PB bookkeeping and slave-to-slave
commits, which go beyond the augmentation rules; see
:mod:`repro.protocols.three_phase_terminating`.
"""

from __future__ import annotations

from typing import Any

from repro.core import messages as m
from repro.core.fsa import (
    ANY_SLAVE,
    EACH_SLAVE,
    MASTER,
    MASTER_ROLE,
    OPERATOR,
    SLAVE_ROLE,
    Transition,
)
from repro.core.rules import FinalAction
from repro.protocols.base import Decision, ProtocolContext, ProtocolMessage, RoleBase
from repro.protocols.plan import ProtocolPlan, compiled_plan

#: Message kinds whose receipt corresponds to journalling the prepared state.
_PROMOTION_KINDS = frozenset({m.PREPARE, m.PRE_COMMIT})

_STATE_TIMER = "state-timeout"

#: Shared empty sender set used as the miss default in `_satisfied`, so the
#: (very common) "no messages of this kind yet" path allocates nothing.
_NO_SENDERS: frozenset[int] = frozenset()


def _final_action_to_decision(action: FinalAction) -> Decision:
    return Decision.COMMIT if action is FinalAction.COMMIT else Decision.ABORT


class FSARole(RoleBase):
    """Executes one role automaton of a commit protocol specification."""

    def __init__(self, ctx: ProtocolContext, plan: ProtocolPlan, role: str) -> None:
        tables = plan.role(role)
        self.spec = plan.spec
        self.role = role
        self.automaton = plan.spec.automaton(role)
        self.augmentation = plan.augmentation
        self.received: dict[str, set[int]] = {}
        self._transitions_from = tables.transitions_from
        self._final_states = tables.final_states
        # Every slave but this site: whom EACH_SLAVE reads wait for and
        # all-slaves sends go to.
        self._peer_slaves = tuple(s for s in ctx.slaves if s != ctx.site)
        super().__init__(ctx, initial_state=self.automaton.initial)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if self.role == MASTER_ROLE:
            self._start_master()
        else:
            self._start_participant()

    def _start_master(self) -> None:
        vote = self.cast_vote()
        if vote == "no":
            # The master aborts unilaterally before involving anyone else.
            self.decide(Decision.ABORT, reason="master voted no")
            self.broadcast_decision(Decision.ABORT)
            return
        # Consume the external "request": take the operator transition.
        for transition in self._transitions_from[self.state]:
            if transition.read.source == OPERATOR:
                self._fire(transition, reason="request received")
                return

    def _start_participant(self) -> None:
        self._arm_state_timer()

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def on_message(self, payload: Any, envelope: Any) -> None:
        message, undeliverable = self.unwrap(payload)
        if message is None:
            return
        if undeliverable:
            self._handle_undeliverable(message)
            return
        if message.kind == m.XACT and self.role == SLAVE_ROLE:
            self._handle_xact(message)
            return
        self.received.setdefault(message.kind, set()).add(message.sender)
        self._try_fire()

    def _handle_xact(self, message: ProtocolMessage) -> None:
        if self.state != self.automaton.initial:
            return
        vote = self.cast_vote()
        wanted = m.YES if vote == "yes" else m.NO
        for transition in self._transitions_from[self.state]:
            if transition.read.kind != m.XACT:
                continue
            if any(send.kind == wanted for send in transition.sends):
                self._fire(transition, reason=f"voted {vote}")
                return

    def _handle_undeliverable(self, message: ProtocolMessage) -> None:
        self.node.note(
            "undeliverable-received",
            transaction=self.transaction_id,
            kind=message.kind,
            state=self.state,
        )
        if self.augmentation is None or self.decided:
            return
        action = self.augmentation.undeliverable_action.get((self.role, self.state))
        if action is None:
            return
        decision = _final_action_to_decision(action)
        self.decide(decision, reason=f"undeliverable {message.kind} in {self.state}")
        if self.role == MASTER_ROLE:
            self.broadcast_decision(decision)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def _arm_state_timer(self) -> None:
        if self.augmentation is None or self.decided:
            return
        if self.state in self._final_states:
            return
        duration = (
            self.ctx.timers.master_vote_timeout
            if self.role == MASTER_ROLE
            else self.ctx.timers.slave_timeout
        )
        self.node.set_timer(_STATE_TIMER, duration)

    def on_timeout(self, timer: Any) -> None:
        if timer.name != _STATE_TIMER or self.augmentation is None or self.decided:
            return
        action = self.augmentation.timeout_action.get((self.role, self.state))
        if action is None:
            return
        decision = _final_action_to_decision(action)
        self.decide(decision, reason=f"timeout in {self.state}")
        if self.role == MASTER_ROLE:
            self.broadcast_decision(decision)

    # ------------------------------------------------------------------
    # FSA execution
    # ------------------------------------------------------------------
    def _try_fire(self) -> None:
        if self.decided:
            return
        progressed = True
        while progressed and not self.decided:
            progressed = False
            for transition in self._transitions_from[self.state]:
                if self._satisfied(transition):
                    self._consume(transition)
                    self._fire(transition, reason=f"received {transition.read.kind}")
                    progressed = True
                    break

    def _satisfied(self, transition: Transition) -> bool:
        read = transition.read
        senders = self.received.get(read.kind, _NO_SENDERS)
        if read.source == MASTER:
            return self.ctx.master in senders
        if read.source == ANY_SLAVE:
            return any(sender != self.ctx.master for sender in senders)
        if read.source == EACH_SLAVE:
            return senders.issuperset(self._peer_slaves)
        return False

    def _consume(self, transition: Transition) -> None:
        read = transition.read
        senders = self.received.get(read.kind, set())
        if read.source == MASTER:
            senders.discard(self.ctx.master)
        elif read.source == ANY_SLAVE:
            for sender in sorted(senders):
                if sender != self.ctx.master:
                    senders.discard(sender)
                    break
        elif read.source == EACH_SLAVE:
            for slave in self.ctx.slaves:
                senders.discard(slave)

    def _fire(self, transition: Transition, *, reason: str) -> None:
        if transition.read.kind in _PROMOTION_KINDS and self.role == SLAVE_ROLE:
            self.db.prepare(self.transaction_id, now=self.now)
        self._emit(transition)
        self.transition(transition.target, reason=reason)
        if transition.target in self.automaton.commit_states:
            self.decide(Decision.COMMIT, reason=reason)
        elif transition.target in self.automaton.abort_states:
            self.decide(Decision.ABORT, reason=reason)
        else:
            self._arm_state_timer()

    def _emit(self, transition: Transition) -> None:
        for send in transition.sends:
            payload = self.transaction if send.kind == m.XACT else None
            if send.target == MASTER:
                self.send(self.ctx.master, send.kind, payload)
            elif send.target == OPERATOR:
                continue
            else:  # all slaves
                self.broadcast(self._peer_slaves, send.kind, payload)


class FSAProtocolDefinition:
    """A protocol definition backed by a formal spec (plus optional rules)."""

    def __init__(
        self,
        name: str,
        spec_factory,
        *,
        augment: bool = False,
    ) -> None:
        self.name = name
        self._spec_factory = spec_factory
        self._augment = augment

    def plan(self, n_sites: int) -> ProtocolPlan:
        """The shared compiled plan of this protocol for ``n_sites`` sites."""
        return compiled_plan(self.name, n_sites, self._spec_factory, augment=self._augment)

    def coordinator(self, ctx: ProtocolContext) -> FSARole:
        """Build the master role for ``ctx``."""
        return FSARole(ctx, self.plan(len(ctx.participants)), MASTER_ROLE)

    def participant(self, ctx: ProtocolContext) -> FSARole:
        """Build a slave role for ``ctx``."""
        return FSARole(ctx, self.plan(len(ctx.participants)), SLAVE_ROLE)
