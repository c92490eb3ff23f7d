"""Generic roles that interpret a protocol's local-step relation.

The baseline protocols (2PC, extended 2PC, 3PC, the naive extended 3PC and
the quorum skeleton) differ only in their finite-state automata and in the
Rule (a)/(b) augmentation applied to them, so one role class runs them all:
:class:`FSARole` interprets the protocol's
:class:`~repro.core.relation.ProtocolRelation`, taken from the shared,
immutable :class:`~repro.protocols.plan.ProtocolPlan`, under the kernel
clock.  Deliveries land in an inbox of senders per message kind; after
every delivery and every state change -- the vote step included -- the
role takes the first enabled step of its local state and keeps stepping
until none is enabled.  The state timer of an augmented role fires the
state's Rule (a) decision and a bounced message its Rule (b) decision;
both decide without moving the local state, and a deciding master
broadcasts the decision.  The model checker enumerates every choice of the
same relation (:mod:`repro.core.reachability`).

The paper's own termination protocol is deliberately *not* expressed this
way -- it needs probe messages, the UD/PB bookkeeping and slave-to-slave
commits, which go beyond the augmentation rules; see
:mod:`repro.protocols.three_phase_terminating`.
"""

from __future__ import annotations

from typing import Any

from repro.core import messages as m
from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
from repro.core.relation import (
    OPERATOR_SITE,
    Resolution,
    Send,
    Step,
    satisfying_senders,
)
from repro.protocols.base import Decision, ProtocolContext, ProtocolMessage, RoleBase
from repro.protocols.plan import ProtocolPlan, compiled_plan

_STATE_TIMER = "state-timeout"

#: Shared empty sender set used as the inbox miss default, so the (very
#: common) "no messages of this kind yet" path allocates nothing.
_NO_SENDERS: frozenset[int] = frozenset()

_DECISIONS = {m.COMMIT: Decision.COMMIT, m.ABORT: Decision.ABORT}


class FSARole(RoleBase):
    """Interprets one role of a protocol's local-step relation."""

    def __init__(self, ctx: ProtocolContext, plan: ProtocolPlan, role: str) -> None:
        self.role = role
        self.relation = plan.relation
        self._tables = plan.relation.role(role)
        self.received: dict[str, set[int]] = {}
        self._master = ctx.master
        # Every slave but this site: whom each-slave reads wait for and
        # slave-bound sends go to.
        self._peer_slaves = tuple(s for s in ctx.slaves if s != ctx.site)
        super().__init__(ctx, initial_state=plan.spec.automaton(role).initial)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if self.role == SLAVE_ROLE:
            self._arm_state_timer()
            return
        if self.cast_vote() == "no":
            # The master aborts unilaterally before involving anyone else.
            self.decide(Decision.ABORT, reason="master voted no")
            self.broadcast_decision(Decision.ABORT)
            return
        # The operator's request is on the tape: the master's first step.
        self.received[m.REQUEST] = {OPERATOR_SITE}
        self._run()

    # ------------------------------------------------------------------
    # deliveries and timers
    # ------------------------------------------------------------------
    def on_message(self, payload: Any, envelope: Any) -> None:
        message, undeliverable = self.unwrap(payload)
        if message is None:
            return
        if undeliverable:
            self._on_undeliverable(message)
            return
        self.received.setdefault(message.kind, set()).add(message.sender)
        self._run()

    def _on_undeliverable(self, message: ProtocolMessage) -> None:
        self.node.note(
            "undeliverable-received",
            transaction=self.transaction_id,
            kind=message.kind,
            state=self.state,
        )
        if self.decided:
            return
        resolution = self._tables[self.state].undeliverable
        if resolution is not None:
            self._resolve(resolution, reason=f"undeliverable {message.kind} in {self.state}")

    def _arm_state_timer(self) -> None:
        if not self._tables[self.state].timed:
            return
        duration = (
            self.ctx.timers.master_vote_timeout
            if self.role == MASTER_ROLE
            else self.ctx.timers.slave_timeout
        )
        self.node.set_timer(_STATE_TIMER, duration)

    def on_timeout(self, timer: Any) -> None:
        if timer.name != _STATE_TIMER or self.decided:
            return
        resolution = self._tables[self.state].timeout
        if resolution is not None:
            self._resolve(resolution, reason=f"timeout in {self.state}")

    # ------------------------------------------------------------------
    # interpreting the relation
    # ------------------------------------------------------------------
    def _run(self) -> None:
        """Take the first enabled step, again and again, until none is."""
        received = self.received
        while not self.decided:
            for step in self._tables[self.state].steps:
                present = received.get(step.kind, _NO_SENDERS)
                choices = satisfying_senders(
                    step.source, present, self._master, self._peer_slaves
                )
                if not choices:
                    continue
                if step.vote is not None and step.vote != (self.vote or self.cast_vote()):
                    continue
                if present:
                    present.difference_update(choices[0])
                self._fire(step)
                break
            else:
                return

    def _fire(self, step: Step) -> None:
        reason = f"voted {step.vote}" if step.vote else f"received {step.kind}"
        if step.journals_prepare:
            self.db.prepare(self.transaction_id, now=self.now)
        self._send_all(step.sends)
        self.transition(step.target, reason=reason)
        if step.decision is not None:
            self.decide(_DECISIONS[step.decision], reason=reason)
        else:
            self._arm_state_timer()

    def _resolve(self, resolution: Resolution, *, reason: str) -> None:
        self.decide(_DECISIONS[resolution.decision], reason=reason)
        self._send_all(resolution.sends)

    def _send_all(self, sends: tuple[Send, ...]) -> None:
        for kind, to_master in sends:
            payload = self.transaction if kind == m.XACT else None
            if to_master:
                self.send(self._master, kind, payload)
            else:
                self.broadcast(self._peer_slaves, kind, payload)


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
        """Build the master role."""
        return FSARole(ctx, self.plan(len(ctx.participants)), MASTER_ROLE)

    def participant(self, ctx: ProtocolContext) -> FSARole:
        """Build a slave role."""
        return FSARole(ctx, self.plan(len(ctx.participants)), SLAVE_ROLE)
