"""The one role class: it interprets a protocol's local-step relation.

Every protocol -- 2PC, extended 2PC, 3PC, the naive extended 3PC, the
quorum skeleton, and terminating 3PC (with and without the transient rule)
and terminating quorum commit -- is its finite-state automata plus either
the Rule (a)/(b) augmentation or Theorem 10's termination construction,
compiled into one :class:`~repro.core.relation.ProtocolRelation`.
:class:`FSARole` interprets that relation, taken from the shared,
immutable :class:`~repro.protocols.plan.ProtocolPlan`, under the kernel
clock:

* deliveries land in an inbox of senders per message kind; after every
  delivery and every state change -- the vote step included -- the role
  takes the first enabled step of its local state and keeps stepping until
  none is enabled or it has decided;
* an arrival action of the delivered kind (the master's probe reads)
  consumes the message first, decided or not;
* the state timer is armed on entering a state that has one; an expiring
  timer fires the state's Rule (a) decision or its first enabled action for
  that timer, a bounced message its Rule (b) decision or its first enabled
  action for that kind;
* guards read and writes update the termination protocol's per-site
  variables (:func:`~repro.core.relation.site_variables`).

Rule (a)/(b) decisions decide without moving the local state, and a
deciding master broadcasts them.  The model checker enumerates every choice
of the same relation (:mod:`repro.core.reachability`) when it is untimed.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import messages as m
from repro.core.fsa import EACH_SLAVE, MASTER_ROLE, SLAVE_ROLE
from repro.core.relation import (
    ARRIVAL,
    OPERATOR_SITE,
    SITE,
    TIMEOUT,
    UNDELIVERABLE,
    Action,
    Resolution,
    Send,
    Timer,
    holds,
    satisfying_senders,
    site_variables,
    write,
)
from repro.protocols.base import Decision, ProtocolContext, ProtocolMessage, RoleBase
from repro.protocols.plan import ProtocolPlan, compiled_plan

#: Shared empty sender set used as the inbox miss default, so the (very
#: common) "no messages of this kind yet" path allocates nothing.
_NO_SENDERS: frozenset[int] = frozenset()

_DECISIONS = {m.COMMIT: Decision.COMMIT, m.ABORT: Decision.ABORT}


class FSARole(RoleBase):
    """Interprets one role of a protocol's local-step relation."""

    #: The site variables, for a relation that uses them.
    vars: Optional[dict[str, Any]] = None

    def __init__(self, ctx: ProtocolContext, plan: ProtocolPlan, role: str) -> None:
        self.role = role
        self.relation = plan.relation
        self._tables = plan.relation.role(role)
        self.received: dict[str, set[int]] = {}
        site, master = ctx.node.node_id, ctx.master
        self._master = master
        # Every slave but this site: whom each-slave reads wait for and
        # slave-bound sends go to.
        slaves = tuple(s for s in ctx.participants if s != master)
        self._peer_slaves = slaves if site == master else tuple(s for s in slaves if s != site)
        if not plan.relation.untimed:
            self.vars = site_variables(slaves)
        super().__init__(ctx, initial_state=plan.spec.automaton(role).initial)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if self.role == SLAVE_ROLE:
            self._arm_state_timer()
            return
        refusal = self.relation.refusal
        if refusal is not None and self.cast_vote() == "no":
            # The master aborts unilaterally before involving anyone else.
            self._resolve(refusal, reason="master voted no")
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
            self._on_undeliverable(message, payload.intended_destination)
            return
        kind = message.kind
        actions = self._tables[self.state].actions
        arrivals = actions.get((ARRIVAL, kind)) if actions else None
        if arrivals:
            action = self._enabled(arrivals)
            if action is not None:
                self._apply(action, message.sender)
                return
        senders = self.received.get(kind)
        if senders is None:
            self.received[kind] = {message.sender}
        else:
            senders.add(message.sender)
        self._run(kind)

    def _on_undeliverable(self, message: ProtocolMessage, intended: int) -> None:
        if self._tracing:
            # The terminating master's UD set records whom a bounce was for.
            ud = {"intended": intended} if self.vars and self.role == MASTER_ROLE else {}
            self.node.note(
                "undeliverable-received",
                transaction=self.transaction_id,
                kind=message.kind,
                **ud,
                state=self.state,
            )
        if self.decided:
            return
        table = self._tables[self.state]
        action = self._enabled(table.actions.get((UNDELIVERABLE, message.kind), ()))
        if action is not None:
            self._apply(action, intended)
        elif table.undeliverable is not None:
            reason = f"undeliverable {message.kind} in {self.state}"
            self._resolve(table.undeliverable, reason=reason)

    def _arm(self, timer: Timer) -> None:
        self.node.set_timer(timer.name, getattr(self.ctx.timers, timer.duration))

    def _arm_state_timer(self) -> None:
        timer = self._tables[self.state].timer
        if timer is not None:
            self._arm(timer)

    def on_timeout(self, timer: Any) -> None:
        if self.decided:
            return
        table = self._tables[self.state]
        if table.timeout is not None:
            # Rule (a): an augmented role's only timer is its state timer.
            self._resolve(table.timeout, reason=f"timeout in {self.state}")
            return
        action = self._enabled(table.actions.get((TIMEOUT, timer.name), ()))
        if action is not None:
            self._apply(action, self.site)

    # ------------------------------------------------------------------
    # interpreting the relation
    # ------------------------------------------------------------------
    def _run(self, kind: Optional[str] = None) -> None:
        """Take the first enabled step, again and again, until none is.

        The role always steps until no step is enabled (or it has decided),
        so after a delivery of ``kind`` only a step reading ``kind`` can be.
        """
        received, master, peers = self.received, self._master, self._peer_slaves
        while self.decision is None:
            for step in self._tables[self.state].steps:
                if kind is not None and step.kind != kind:
                    continue
                present = received.get(step.kind, _NO_SENDERS)
                # Only an each-slave read can hold over an empty inbox.
                if not present and step.source != EACH_SLAVE:
                    continue
                choices = satisfying_senders(step.source, present, master, peers)
                if not choices:
                    continue
                if step.guard is not None and not holds(step.guard, self.vars):
                    continue
                if step.vote is not None and step.vote != (self.vote or self.cast_vote()):
                    continue
                if present:
                    present.difference_update(choices[0])
                self._apply(step)
                kind = None
                break
            else:
                return

    def _enabled(self, actions: tuple[Action, ...]) -> Optional[Action]:
        """The first of ``actions`` whose guard holds."""
        for action in actions:
            if action.guard is None or holds(action.guard, self.vars):
                return action
        return None

    def _apply(self, action: Action, site: Optional[int] = None) -> None:
        """Take ``action``; ``site`` is the one its triggering event concerns."""
        reason = action.label
        decision = action.decision
        note = action.note if self._tracing else None
        if note is not None and decision is not None:
            self._note(action, site)
        if action.writes:
            write(action.writes, self.vars, site)
        if action.journals_prepare:
            self.db.prepare(self.transaction_id, now=self.now)
        if action.sends:
            self._send_all(action.sends)
        if action.target is not None:
            self.transition(action.target, reason=reason)
        for name in action.cancels:
            self.node.cancel_timer(name)
        for timer in action.arms:
            self._arm(timer)
        if decision is not None:
            self.decide(_DECISIONS[decision], reason=reason)
            return
        if note is not None:
            self._note(action, site)
        if action.target is not None:
            self._arm_state_timer()

    def _note(self, action: Action, site: Optional[int]) -> None:
        category, fields = action.note
        data = {SITE: site, "state": self.state, "decision": action.decision}
        detail = {
            field: data[datum] if datum in data else sorted(self.vars[datum])
            for field, datum in fields
        }
        self.node.note(category, transaction=self.transaction_id, **detail)

    def _resolve(self, resolution: Resolution, *, reason: str) -> None:
        self.decide(_DECISIONS[resolution.decision], reason=reason)
        self._send_all(resolution.sends)

    def _send_all(self, sends: tuple[Send, ...]) -> None:
        for kind, to in sends:
            payload = self.transaction if kind == m.XACT else self.site if kind == m.PROBE else None
            if to:
                self.send(self._master, kind, payload)
            elif to is None:
                self.broadcast(self.ctx.others, kind, payload)
            else:
                self.broadcast(self._peer_slaves, kind, payload)


class FSAProtocolDefinition:
    """A protocol definition: a formal spec, extended by Rule (a)/(b)
    (``augment``) or by Theorem 10's termination protocol (``terminate``,
    with or without the Section 6 ``transient_rule``)."""

    def __init__(
        self,
        name: str,
        spec_factory,
        *,
        augment: bool = False,
        terminate: bool = False,
        transient_rule: bool = True,
    ) -> None:
        self.name = name
        self._spec_factory = spec_factory
        self._flags = {"augment": augment, "terminate": terminate, "transient_rule": transient_rule}

    def plan(self, n_sites: int) -> ProtocolPlan:
        """The shared compiled plan of this protocol for ``n_sites`` sites."""
        return compiled_plan(self.name, n_sites, self._spec_factory, **self._flags)

    def coordinator(self, ctx: ProtocolContext) -> FSARole:
        """Build the master role."""
        return FSARole(ctx, self.plan(len(ctx.participants)), MASTER_ROLE)

    def participant(self, ctx: ProtocolContext) -> FSARole:
        """Build a slave role."""
        return FSARole(ctx, self.plan(len(ctx.participants)), SLAVE_ROLE)
